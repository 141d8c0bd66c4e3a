package transport

import (
	"bufio"
	"net"
	"sync"
	"testing"
	"time"

	"gravel/internal/fabric"
	"gravel/internal/rt"
	"gravel/internal/timemodel"
	"gravel/internal/transport/fault"
	"gravel/internal/wire"
)

// newTCPCluster assembles n TCP fabrics (one per simulated process)
// around an in-process coordinator. Joins block until the whole
// cluster has assembled, so construction is concurrent.
func newTCPCluster(t testing.TB, n int) []*TCP {
	t.Helper()
	return newTCPClusterWith(t, n, fabric.Options{ResolverBanks: 1})
}

// newTCPClusterWith is newTCPCluster with every node built from opt
// (Self and Coord filled in).
func newTCPClusterWith(t testing.TB, n int, opt fabric.Options) []*TCP {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c := NewCoordinator(n)
	go c.Serve(ln)
	t.Cleanup(func() { ln.Close() })

	fabs := make([]*TCP, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			o := opt
			o.Self, o.Coord = i, ln.Addr().String()
			fabs[i], errs[i] = NewTCP(timemodel.Default(), newClocks(n), o)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("fabric %d: %v", i, err)
		}
	}
	return fabs
}

// allQuiet polls every fabric's Quiet — deliberately without
// short-circuiting. The step vote needs each process to keep casting
// its ballots (in real deployments every process's own Quiesce loop
// does this); a short-circuiting f0 && f1 would starve f1's ballots and
// deadlock the vote.
func allQuiet(fabs []*TCP) bool {
	quiet := true
	for _, f := range fabs {
		if !f.Quiet() {
			quiet = false
		}
	}
	return quiet
}

func closeAll(fabs []*TCP) {
	var wg sync.WaitGroup
	for _, f := range fabs {
		wg.Add(1)
		go func(f *TCP) {
			defer wg.Done()
			f.Close()
		}(f)
	}
	wg.Wait()
}

func TestTCPSingleNodeNeedsNoCoordinator(t *testing.T) {
	f, err := NewTCP(timemodel.Default(), newClocks(1), fabric.Options{})
	if err != nil {
		t.Fatal(err)
	}
	f.Send(0, 0, incBuf(3, 1), 1)
	f.Done(<-f.Inbox(0))
	if !f.Quiet() {
		t.Fatal("single node not quiet after Done")
	}
	f.Close()
}

func TestTCPDeliversAndQuiesces(t *testing.T) {
	fabs := newTCPCluster(t, 2)
	defer closeAll(fabs)

	buf := incBuf(7, 2)
	fabs[0].Send(0, 1, buf, 1)
	var p fabric.Packet
	select {
	case p = <-fabs[1].Inbox(1):
	case <-time.After(5 * time.Second):
		t.Fatal("packet never delivered")
	}
	if p.From != 0 || p.To != 1 || p.Msgs != 1 || string(p.Buf) != string(buf) {
		t.Fatalf("bad packet %+v", p)
	}
	// Not applied yet: the cluster must not report quiet.
	if fabs[0].Quiet() && fabs[1].Quiet() && fabs[0].Quiet() {
		t.Fatal("cluster quiet while a packet is being applied")
	}
	fabs[1].Done(p)
	waitQuiet(t, "tcp pair", func() bool { return allQuiet(fabs) })

	if got := fabs[0].PerDest[1].Packets.Load(); got != 1 {
		t.Fatalf("sender PerDest[1].Packets = %d, want 1", got)
	}
}

// TestTCPWritesOneFramePerWrite holds the writer to the fault
// injector's contract: every frame is one Write. An injector that
// delays every frame by a nanosecond counts one decision per Write, so
// each direction's count must be its stream's sequenced frames (data
// and ballots) plus the HELLO that opened the connection.
func TestTCPWritesOneFramePerWrite(t *testing.T) {
	const packets = 32
	fabs := newTCPClusterWith(t, 2, fabric.Options{ResolverBanks: 1, Faults: &fault.Config{Delay: 1, DelayMax: time.Nanosecond}})
	for a := uint64(0); a < packets; a++ {
		fabs[0].Send(0, 1, incBuf(a, 1), 1)
	}
	for i := 0; i < packets; i++ {
		fabs[1].Done(<-fabs[1].Inbox(1))
	}
	waitQuiet(t, "tcp pair", func() bool { return allQuiet(fabs) })
	// Every ballot of the released vote has arrived, so every frame
	// before Close's FIN is written; the sequence counters are read once
	// the writers have stopped.
	writes := []int64{fabs[0].FaultInjector().Counters().Delay, fabs[1].FaultInjector().Counters().Delay}
	closeAll(fabs)
	for i, f := range fabs {
		if frames := f.senders[1-i].str.nextSeq; writes[i] != int64(frames)+1 {
			t.Errorf("node %d: %d Writes for HELLO and %d sequenced frames, want one each", i, writes[i], frames)
		}
	}
}

func TestTCPReduceSumsAcrossFabrics(t *testing.T) {
	fabs := newTCPCluster(t, 3)
	defer closeAll(fabs)

	totals := make([]uint64, 3)
	var wg sync.WaitGroup
	for i, f := range fabs {
		wg.Add(1)
		go func(i int, f *TCP) {
			defer wg.Done()
			totals[i], _ = f.Collectives().AllReduce("sum", rt.WorldTeam, rt.OpSum, uint64(10*(i+1)))
		}(i, f)
	}
	wg.Wait()
	for i, tot := range totals {
		if tot != 60 {
			t.Fatalf("fabric %d reduced to %d, want 60", i, tot)
		}
	}
}

func TestTCPStepBarrierAligns(t *testing.T) {
	fabs := newTCPCluster(t, 2)
	defer closeAll(fabs)

	done := make(chan int, 2)
	go func() {
		fabs[0].StepBarrier()
		done <- 0
	}()
	select {
	case <-done:
		t.Fatal("barrier released with one of two processes absent")
	case <-time.After(50 * time.Millisecond):
	}
	go func() {
		fabs[1].StepBarrier()
		done <- 1
	}()
	for i := 0; i < 2; i++ {
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("step barrier never released")
		}
	}
}

// TestTCPRecoversFromConnectionDrop is the transport's recovery
// contract: sever every established connection mid-stream and every
// message must still arrive exactly once, with the reconnect counted.
func TestTCPRecoversFromConnectionDrop(t *testing.T) {
	fabs := newTCPCluster(t, 2)

	const total = 48
	recvd := make(chan uint64, total)
	go func() {
		for p := range fabs[1].Inbox(1) {
			wire.Decode(p.Buf, func(_, a, _ uint64) { recvd <- a })
			fabs[1].Done(p)
		}
	}()

	collect := func(want int, seen map[uint64]bool) {
		t.Helper()
		for i := 0; i < want; i++ {
			select {
			case a := <-recvd:
				if seen[a] {
					t.Fatalf("message %d delivered twice", a)
				}
				seen[a] = true
			case <-time.After(10 * time.Second):
				t.Fatalf("gave up with %d messages delivered", len(seen))
			}
		}
	}

	seen := make(map[uint64]bool)
	// Phase 1 proves the stream is established and flowing.
	for i := 0; i < total/4; i++ {
		fabs[0].Send(0, 1, incBuf(uint64(i), 1), 1)
	}
	collect(total/4, seen)

	// Sever everything, then keep sending: the sender must reconnect
	// (with backoff) and retransmit whatever the drop swallowed.
	fabs[0].DropConnections()
	fabs[1].DropConnections()
	for i := total / 4; i < total; i++ {
		fabs[0].Send(0, 1, incBuf(uint64(i), 1), 1)
		if i == total/2 {
			fabs[0].DropConnections() // once more, mid-retransmission
		}
	}
	collect(total-total/4, seen)

	for i := 0; i < total; i++ {
		if !seen[uint64(i)] {
			t.Fatalf("message %d lost", i)
		}
	}
	if got := fabs[0].Reconnects.Load(); got < 1 {
		t.Fatalf("Reconnects = %d, want >= 1", got)
	}
	waitQuiet(t, "tcp pair", func() bool { return allQuiet(fabs) })
	closeAll(fabs)
}

func TestTCPRejectsPeersWithoutCoordinator(t *testing.T) {
	_, err := NewTCP(timemodel.Default(), newClocks(2), fabric.Options{})
	if err == nil {
		t.Fatal("NewTCP accepted a multi-node cluster without a coordinator")
	}
}

// TestTCPCloseInterruptsReconnect pins the shutdown path against a
// vanished peer: a writer stuck in its dial/backoff loop must notice
// stop and fall into the bounded drain instead of redialing forever.
func TestTCPCloseInterruptsReconnect(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // nobody listening: every dial is refused

	tr := &TCP{Metrics: fabric.NewMetrics(2), params: timemodel.Default(), clocks: newClocks(2), n: 2, self: 0}
	s := &sender{
		t:     tr,
		dest:  1,
		addr:  addr,
		queue: make(chan *frame, sendQueueFrames),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	go s.run()
	time.Sleep(50 * time.Millisecond) // let the writer enter the backoff loop

	done := make(chan struct{})
	go func() {
		s.shutdown()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("shutdown hung in the reconnect loop")
	}
}

// newRecvOnlyTCP assembles the receive side of a TCP fabric without
// senders or a coordinator, so tests can drive its wire protocol with
// hand-rolled connections. gen is the membership generation.
func newRecvOnlyTCP(t *testing.T, n, self int, gen uint32) *TCP {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	clocks := newClocks(n)
	ep, err := fabric.NewEndpoint(clocks, func(node int) bool { return node == self }, 1, recvQueueFrames)
	if err != nil {
		t.Fatal(err)
	}
	tr := &TCP{
		Metrics:  fabric.NewMetrics(n),
		Endpoint: ep,
		params:   timemodel.Default(),
		clocks:   clocks,
		n:        n,
		self:     self,
		gen:      gen,
		ln:       ln,
		recv:     make([]recvStream, n),
		conns:    make(map[net.Conn]struct{}),
		senders:  make([]*sender, n),
		tally:    tally{self: self, box: make([]ballots, n)},
	}
	go tr.acceptLoop()
	return tr
}

// TestTCPSupersedesStaleInboundConn pins the receive side's
// exactly-once contract across reconnects: a new HELLO from a peer
// must retire the old connection before the resume point is acked, and
// a retransmitted frame must be re-acked without a second delivery.
func TestTCPSupersedesStaleInboundConn(t *testing.T) {
	tr := newRecvOnlyTCP(t, 2, 1, 0)
	defer tr.Close()

	dial := func() (net.Conn, *bufio.Reader) {
		t.Helper()
		c, err := net.DialTimeout("tcp", tr.Addr(), dialTimeout)
		if err != nil {
			t.Fatal(err)
		}
		return c, bufio.NewReader(c)
	}
	expectAck := func(br *bufio.Reader, seq uint64) {
		t.Helper()
		f, err := readFrame(br)
		if err != nil {
			t.Fatalf("reading ack: %v", err)
		}
		if f.typ != frameAck || f.seq != seq {
			t.Fatalf("got frame type %d seq %d, want ack seq %d", f.typ, f.seq, seq)
		}
	}
	recvInc := func(want uint64) {
		t.Helper()
		select {
		case p := <-tr.Inbox(1):
			var got uint64
			wire.Decode(p.Buf, func(_, a, _ uint64) { got = a })
			if got != want {
				t.Fatalf("delivered address %d, want %d", got, want)
			}
			tr.Done(p)
		case <-time.After(5 * time.Second):
			t.Fatal("packet never delivered")
		}
	}

	connA, brA := dial()
	defer connA.Close()
	if err := writeFrame(connA, &frame{typ: frameHello, from: 0, to: 1}); err != nil {
		t.Fatal(err)
	}
	expectAck(brA, 0)
	if err := writeFrame(connA, &frame{typ: frameData, from: 0, to: 1, msgs: 1, seq: 1, payload: incBuf(5, 1)}); err != nil {
		t.Fatal(err)
	}
	recvInc(5)
	expectAck(brA, 1)

	// Reconnect: the new stream's HELLO must resume at seq 1 and cut
	// the old connection off before it can deliver anything else.
	connB, brB := dial()
	defer connB.Close()
	if err := writeFrame(connB, &frame{typ: frameHello, from: 0, to: 1}); err != nil {
		t.Fatal(err)
	}
	expectAck(brB, 1)
	connA.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := readFrame(brA); err == nil {
		t.Fatal("superseded connection still alive")
	}

	// The retransmitted window re-acks without a second delivery; the
	// next fresh frame flows normally.
	if err := writeFrame(connB, &frame{typ: frameData, from: 0, to: 1, msgs: 1, seq: 1, payload: incBuf(5, 1)}); err != nil {
		t.Fatal(err)
	}
	expectAck(brB, 1)
	if err := writeFrame(connB, &frame{typ: frameData, from: 0, to: 1, msgs: 1, seq: 2, payload: incBuf(9, 1)}); err != nil {
		t.Fatal(err)
	}
	recvInc(9)
	expectAck(brB, 2)
	select {
	case p := <-tr.Inbox(1):
		t.Fatalf("unexpected extra delivery %+v", p)
	default:
	}
}

// BenchmarkTCPStep times one StepBarrier of a TCP cluster: an empty
// step of 2 and of 4 processes, and a 2-process step in which node 0
// sends node 1 one 1-record packet that node 1 applies before voting.
func BenchmarkTCPStep(b *testing.B) {
	for _, bc := range []struct {
		name           string
		nodes, records int
	}{{"empty-2", 2, 0}, {"empty-4", 4, 0}, {"one-record", 2, 1}} {
		b.Run(bc.name, func(b *testing.B) {
			fabs := newTCPCluster(b, bc.nodes)
			defer closeAll(fabs)
			var wg sync.WaitGroup
			b.ResetTimer()
			for node, f := range fabs {
				wg.Add(1)
				go func(node int, f *TCP) {
					defer wg.Done()
					for i := 0; i < b.N; i++ {
						for r := 0; r < bc.records; r++ {
							if node == 0 {
								f.Send(0, 1, incBuf(uint64(i), 1), 1)
							} else {
								f.Done(<-f.Inbox(1))
							}
						}
						f.StepBarrier()
					}
				}(node, f)
			}
			wg.Wait()
		})
	}
}
