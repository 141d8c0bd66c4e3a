package agg

import (
	"runtime"
	"testing"
	"time"

	"gravel/internal/fabric"
	"gravel/internal/queue"
	"gravel/internal/timemodel"
	"gravel/internal/wire"
)

func setup(t *testing.T, perMessage bool, queueBytes int) (*Aggregator, *queue.Gravel, *fabric.Chan) {
	t.Helper()
	p := timemodel.Default()
	if queueBytes > 0 {
		p.PerNodeQueueBytes = queueBytes
	}
	clocks := []*timemodel.Clocks{{}, {}}
	fab := fabric.New(p, clocks)
	q := queue.NewGravel(64, wire.SlotRows, 4)
	a := New(0, p, q, fab, clocks[0], perMessage)
	return a, q, fab
}

// produce enqueues count messages to dest through the PCQ.
func produce(q *queue.Gravel, dest, count int) {
	for sent := 0; sent < count; {
		n := 4
		if count-sent < n {
			n = count - sent
		}
		s := q.Reserve(n)
		for m := 0; m < n; m++ {
			s.Row(wire.RowCmd)[m] = wire.PackCmd(wire.OpInc, 0, 1)
			s.Row(wire.RowDest)[m] = uint64(dest)
			s.Row(wire.RowA)[m] = uint64(sent + m)
			s.Row(wire.RowB)[m] = 1
		}
		s.Commit()
		sent += n
	}
}

// collector drains a node's inbox concurrently (the inbox is bounded,
// so synchronous flushes of many packets need a live consumer).
type collector struct {
	ch chan [2]int
}

func collect(fab *fabric.Chan, node int) *collector {
	c := &collector{ch: make(chan [2]int, 1)}
	go func() {
		pkts, msgs := 0, 0
		for pkt := range fab.Inbox(node) {
			pkts++
			msgs += pkt.Msgs
			fab.Done(pkt)
		}
		c.ch <- [2]int{pkts, msgs}
	}()
	return c
}

// wait closes the fabric and returns (pkts, msgs).
func (c *collector) wait() (int, int) {
	r := <-c.ch
	return r[0], r[1]
}

func TestCombiningFlush(t *testing.T) {
	a, q, fab := setup(t, false, 0)
	c := collect(fab, 1)
	produce(q, 1, 100)
	a.Flush() // drains the queue on the caller's thread and sends
	if a.Pending() {
		t.Fatal("pending after flush")
	}
	fab.Close()
	pkts, msgs := c.wait()
	if msgs != 100 {
		t.Fatalf("msgs = %d, want 100", msgs)
	}
	if pkts != 1 {
		t.Fatalf("pkts = %d, want 1 (combined)", pkts)
	}
}

func TestFullQueueAutoFlush(t *testing.T) {
	// Tiny per-node queues force flush-on-full during repack. The inbox
	// is bounded, so collect packets concurrently while flushing.
	a, q, fab := setup(t, false, 10*wire.MsgWireBytes)
	c := collect(fab, 1)
	produce(q, 1, 95)
	a.Flush()
	fab.Close()
	pkts, msgs := c.wait()
	if msgs != 95 {
		t.Fatalf("msgs = %d", msgs)
	}
	if pkts != 10 { // 9 full flushes of 10 + final 5
		t.Fatalf("pkts = %d, want 10", pkts)
	}
}

func TestPerMessageMode(t *testing.T) {
	a, q, fab := setup(t, true, 0)
	c := collect(fab, 1)
	produce(q, 1, 12)
	a.Flush()
	fab.Close()
	pkts, msgs := c.wait()
	if pkts != 12 || msgs != 12 {
		t.Fatalf("per-message mode: pkts=%d msgs=%d, want 12/12", pkts, msgs)
	}
}

func TestBackgroundDrain(t *testing.T) {
	a, q, fab := setup(t, false, 0)
	c := collect(fab, 0)
	a.Start()
	produce(q, 0, 200) // self-destined
	// The background thread must eventually drain the queue.
	for !q.Empty() {
		runtime.Gosched()
	}
	a.Stop()
	a.Flush()
	fab.Close()
	_, msgs := c.wait()
	if msgs != 200 {
		t.Fatalf("msgs = %d, want 200", msgs)
	}
}

func TestRouteByDestination(t *testing.T) {
	a, q, fab := setup(t, false, 0)
	c0 := collect(fab, 0)
	c1 := collect(fab, 1)
	produce(q, 0, 7)
	produce(q, 1, 9)
	a.Flush()
	fab.Close()
	_, m0 := c0.wait()
	_, m1 := c1.wait()
	if m0 != 7 || m1 != 9 {
		t.Fatalf("routed %d/%d, want 7/9", m0, m1)
	}
}

// TestAppendDirect: host-context messages stage into the right queues.
func TestAppendDirect(t *testing.T) {
	p := timemodel.Default()
	clocks := []*timemodel.Clocks{{}, {}, {}, {}}
	fab := fabric.New(p, clocks)
	a := New(0, p, queue.NewGravel(64, wire.SlotRows, 4), fab, clocks[0], false)
	c2 := collect(fab, 2)
	for i := 0; i < 5; i++ {
		a.AppendDirect(2, wire.PackCmd(wire.OpAM, 1, 0), uint64(i), 9, 10)
	}
	if !a.Pending() {
		t.Fatal("AppendDirect left nothing pending")
	}
	a.Flush()
	fab.Close()
	pkts, msgs := c2.wait()
	if pkts != 1 || msgs != 5 {
		t.Fatalf("%d pkts / %d msgs, want 1/5", pkts, msgs)
	}
}

// TestDrainersKeepIssueOrder: the launch epilogue's Drain shares the
// aggregator thread's consumer. A slot it claims while that thread
// is still staging an earlier one must not reach the builders first, or
// one source's messages to one destination leave out of issue order.
func TestDrainersKeepIssueOrder(t *testing.T) {
	a, q, _ := setup(t, false, 0)
	produce(q, 1, 8) // two slots: addresses 0-3, then 4-7
	inside, resume := make(chan struct{}), make(chan struct{})
	stage, first := a.consume, true
	a.consume = func(payload []uint64, rows, cols, count int) {
		if first { // the aggregator thread, holding the first slot
			first = false
			close(inside)
			<-resume
		}
		stage(payload, rows, cols, count)
	}
	thread, epilogue := make(chan struct{}), make(chan struct{})
	go func() { defer close(thread); a.drainSome() }()
	<-inside
	go func() { defer close(epilogue); a.Drain() }()
	// Unserialized, the epilogue claims the second slot at once.
	for t0 := time.Now(); !q.Empty() && time.Since(t0) < 50*time.Millisecond; {
		runtime.Gosched()
	}
	close(resume)
	<-thread
	<-epilogue
	buf, _ := a.builders[1].Take()
	var got []uint64
	wire.Decode(buf, func(_, addr, _ uint64) { got = append(got, addr) })
	for i, addr := range got {
		if addr != uint64(i) {
			t.Fatalf("staged in order %v, want 0..7", got)
		}
	}
}
