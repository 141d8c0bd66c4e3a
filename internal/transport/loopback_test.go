package transport

import (
	"testing"
	"time"

	"gravel/internal/timemodel"
	"gravel/internal/wire"
)

func newClocks(n int) []*timemodel.Clocks {
	clocks := make([]*timemodel.Clocks, n)
	for i := range clocks {
		clocks[i] = &timemodel.Clocks{}
	}
	return clocks
}

// incBuf builds a valid per-node queue carrying one OpInc record.
func incBuf(a, v uint64) []byte {
	b := wire.NewBuilder(0, 1024)
	b.Append(wire.PackCmd(wire.OpInc, 0, 0), a, v)
	buf, _ := b.Take()
	return buf
}

func waitQuiet(t *testing.T, name string, quiet func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !quiet() {
		if time.Now().After(deadline) {
			t.Fatalf("%s did not quiesce", name)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

func TestLoopbackDeliversThroughFraming(t *testing.T) {
	clocks := newClocks(3)
	l := NewLoopback(timemodel.Default(), clocks)
	defer l.Close()

	buf := incBuf(7, 1)
	l.Send(0, 1, buf, 1)
	p := <-l.Inbox(1)
	if p.From != 0 || p.To != 1 || p.Msgs != 1 {
		t.Fatalf("bad packet %+v", p)
	}
	if string(p.Buf) != string(buf) {
		t.Fatalf("payload mangled by framing")
	}
	l.Done(p)

	l.Send(2, 2, incBuf(1, 1), 1) // self: skips the wire
	l.Done(<-l.Inbox(2))
	waitQuiet(t, "loopback", l.Quiet)

	if got := l.PerDest[1].Packets.Load(); got != 1 {
		t.Fatalf("PerDest[1].Packets = %d, want 1", got)
	}
	if got := clocks[2].Snapshot().SelfPkts; got != 1 {
		t.Fatalf("node 2 SelfPkts = %d, want 1", got)
	}
}

func TestLoopbackDropsMalformedPayloads(t *testing.T) {
	l := NewLoopback(timemodel.Default(), newClocks(2))
	defer l.Close()

	// Not a whole number of wire records: the decoder must count it,
	// drop it, and still quiesce — never panic or deliver.
	l.Send(0, 1, []byte{1, 2, 3}, 1)
	waitQuiet(t, "loopback", l.Quiet)
	if got := l.Malformed.Load(); got != 1 {
		t.Fatalf("Malformed = %d, want 1", got)
	}
	select {
	case p := <-l.Inbox(1):
		t.Fatalf("malformed payload delivered: %+v", p)
	default:
	}
}
