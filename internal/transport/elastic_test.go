package transport

import (
	"bufio"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"gravel/internal/fabric"
	"gravel/internal/rt"
	"gravel/internal/timemodel"
)

// TestTCPEvictsStaleHello pins the receive side of the membership
// generation gate: a HELLO stamped with a dead epoch's generation must
// be answered with frameEvict carrying the receiver's generation and
// the connection cut — an unstamped hello included, every transport
// stamps — while a matching hello completes the handshake. Without the
// gate a stale worker's
// frames would be silently applied into the new epoch's replicas.
func TestTCPEvictsStaleHello(t *testing.T) {
	tr := newRecvOnlyTCP(t, 2, 1, 3)
	defer tr.Close()

	dial := func(gen uint16) (net.Conn, *frame, error) {
		t.Helper()
		c, err := net.DialTimeout("tcp", tr.Addr(), dialTimeout)
		if err != nil {
			t.Fatal(err)
		}
		if err := writeFrame(c, &frame{typ: frameHello, from: 0, to: 1, gen: gen}); err != nil {
			t.Fatal(err)
		}
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		f, err := readFrame(bufio.NewReader(c))
		return c, f, err
	}

	// Stale generation: evicted, not acked.
	c, f, err := dial(1)
	if err != nil {
		t.Fatalf("reading evict reply: %v", err)
	}
	if f.typ != frameEvict {
		t.Fatalf("stale hello answered with frame type %d, want evict", f.typ)
	}
	if f.seq != 3 || f.gen != 3 {
		t.Fatalf("evict carries generation seq=%d gen=%d, want 3", f.seq, f.gen)
	}
	// The receiver must also cut the connection: nothing else may flow.
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := readFrame(bufio.NewReader(c)); err == nil {
		t.Fatal("stale connection stayed open after the evict")
	}
	c.Close()

	// Matching generation completes the handshake.
	c, f, err = dial(3)
	if err != nil || f.typ != frameAck {
		t.Fatalf("matching-generation hello: frame %+v err %v, want ack", f, err)
	}
	c.Close()

	// An unstamped hello is from no generation this cluster ever had.
	c, f, err = dial(0)
	if err != nil || f.typ != frameEvict {
		t.Fatalf("unstamped hello: frame %+v err %v, want evict", f, err)
	}
	c.Close()
}

// TestTCPSenderEvictedTypedError pins the send side: a sender whose
// handshake is refused with frameEvict must fail its whole transport
// with *StaleGenerationError (Source "peer") instead of redialing
// forever.
func TestTCPSenderEvictedTypedError(t *testing.T) {
	recv := newRecvOnlyTCP(t, 2, 1, 3)
	defer recv.Close()

	tr := &TCP{
		Metrics:  fabric.NewMetrics(2),
		params:   timemodel.Default(),
		clocks:   newClocks(2),
		n:        2,
		self:     0,
		gen:      2,
		failedCh: make(chan struct{}),
		killed:   make(chan struct{}),
	}
	s := &sender{
		t:     tr,
		dest:  1,
		addr:  recv.Addr(),
		queue: make(chan *frame, sendQueueFrames),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	go s.run()
	defer s.shutdown()

	deadline := time.Now().Add(10 * time.Second)
	for tr.Err() == nil && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	var se *StaleGenerationError
	if err := tr.Err(); !errors.As(err, &se) {
		t.Fatalf("transport error is %T (%v), want *StaleGenerationError", err, err)
	}
	if se.Have != 2 || se.Want != 3 || se.Source != "peer" {
		t.Fatalf("typed error = %+v, want Have=2 Want=3 Source=peer", se)
	}
}

// TestCoordinatorRejectsStaleGeneration pins the coordinator's
// generation gate: a worker joining with a dead epoch's generation is
// refused with *StaleGenerationError (Source "coordinator") on its
// first RPC, before it can pollute the new epoch's membership.
func TestCoordinatorRejectsStaleGeneration(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	c := NewCoordinator(2)
	go c.Serve(ln)
	if gen := c.BeginEpoch(2); gen != 2 {
		t.Fatalf("BeginEpoch moved to generation %d, want 2", gen)
	}

	_, err = NewTCP(timemodel.Default(), newClocks(2), fabric.Options{
		Self:             0,
		Coord:            ln.Addr().String(),
		Generation:       1,
		CoordDialTimeout: 5 * time.Second,
		CoordRPCTimeout:  2 * time.Second,
	})
	var se *StaleGenerationError
	if !errors.As(err, &se) {
		t.Fatalf("join error is %T (%v), want *StaleGenerationError", err, err)
	}
	if se.Have != 1 || se.Want != 2 || se.Source != "coordinator" {
		t.Fatalf("typed error = %+v, want Have=1 Want=2 Source=coordinator", se)
	}
}

// TestTCPCoordinatorKillTypedUnwind kills the coordinator under an
// assembled cluster and requires the workers to unwind with the typed
// *CoordDownError — Reduce by returning it, Quiet by panicking it on
// the Step goroutine — rather than hanging in a collective that can
// never complete.
func TestTCPCoordinatorKillTypedUnwind(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c := NewCoordinator(2)
	go c.Serve(ln)

	fabs := make([]*TCP, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fabs[i], errs[i] = NewTCP(timemodel.Default(), newClocks(2), fabric.Options{
				Self:              i,
				Coord:             ln.Addr().String(),
				CoordRPCTimeout:   time.Second,
				HeartbeatInterval: 50 * time.Millisecond, // how a parked voter learns of the death
			})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("fabric %d: %v", i, err)
		}
	}
	defer func() {
		fabs[0].Kill()
		fabs[1].Kill()
	}()

	c.Kill()
	ln.Close()

	_, err = fabs[0].Collectives().AllReduce("after-kill", rt.WorldTeam, rt.OpSum, 1)
	var cde *CoordDownError
	if !errors.As(err, &cde) {
		t.Fatalf("AllReduce error is %T (%v), want *CoordDownError", err, err)
	}

	unwound := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				var ok bool
				if err, ok = r.(error); !ok {
					t.Fatalf("Quiet panicked a non-error %v", r)
				}
			}
		}()
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			fabs[1].Quiet()
			time.Sleep(time.Millisecond)
		}
		return nil
	}()
	if !errors.As(unwound, &cde) {
		t.Fatalf("Quiet unwound with %T (%v), want *CoordDownError", unwound, unwound)
	}
}
