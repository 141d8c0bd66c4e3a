package fabric

import (
	"math"
	"testing"

	"gravel/internal/timemodel"
)

// near allows for the fixed-point (1/16 ns) clock granularity.
func near(a, b float64) bool { return math.Abs(a-b) < 0.125 }

func newTestFabric(n int) (*Chan, []*timemodel.Clocks) {
	clocks := make([]*timemodel.Clocks, n)
	for i := range clocks {
		clocks[i] = &timemodel.Clocks{}
	}
	return New(timemodel.Default(), clocks), clocks
}

func TestSendDeliversAndCharges(t *testing.T) {
	f, clocks := newTestFabric(3)
	buf := make([]byte, 240)
	f.Send(0, 2, buf, 10)
	pkt := <-f.Inbox(2)
	if pkt.From != 0 || pkt.To != 2 || pkt.Msgs != 10 || len(pkt.Buf) != 240 {
		t.Fatalf("packet wrong: %+v", pkt)
	}
	if f.Quiet() {
		t.Fatal("Quiet before Done")
	}
	f.Done(pkt)
	if !f.Quiet() {
		t.Fatal("not Quiet after Done")
	}
	want := timemodel.Default().WireNs(240)
	if got := clocks[0].Snapshot().WireSend; !near(got, want) {
		t.Fatalf("sender wire = %v, want %v", got, want)
	}
	if got := clocks[2].Snapshot().WireRecv; !near(got, want) {
		t.Fatalf("receiver wire = %v, want %v", got, want)
	}
	if s := clocks[0].Snapshot(); s.PktsSent != 1 || s.BytesSent != 240 {
		t.Fatalf("sender ledger counts %d packets, %d bytes; want 1, 240", s.PktsSent, s.BytesSent)
	}
	if d := &f.PerDest[2]; d.Packets.Load() != 1 || d.Bytes.Load() != 240 {
		t.Fatalf("PerDest[2] = %d packets, %d bytes; want 1, 240", d.Packets.Load(), d.Bytes.Load())
	}
}

func TestSelfSendSkipsWire(t *testing.T) {
	f, clocks := newTestFabric(2)
	f.Send(1, 1, make([]byte, 48), 2)
	pkt := <-f.Inbox(1)
	f.Done(pkt)
	s := clocks[1].Snapshot()
	if s.WireSend != 0 {
		t.Fatal("self-send charged wire time")
	}
	if s.SelfPkts != 1 {
		t.Fatal("self packet not counted")
	}
	if s.PktsSent != 0 || f.PerDest[1].Packets.Load() != 0 {
		t.Fatal("self packet counted as wire packet")
	}
}

func TestSendInvalidDestPanics(t *testing.T) {
	f, _ := newTestFabric(2)
	defer func() {
		if recover() == nil {
			t.Fatal("invalid destination did not panic")
		}
	}()
	f.Send(0, 5, nil, 0)
}

func TestCloseEndsInboxes(t *testing.T) {
	f, _ := newTestFabric(2)
	f.Close()
	if _, ok := <-f.Inbox(0); ok {
		t.Fatal("inbox open after Close")
	}
}
