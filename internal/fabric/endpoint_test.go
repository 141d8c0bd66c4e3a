package fabric

import (
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"gravel/internal/timemodel"
	"gravel/internal/wire"
)

// newLedgers returns n zero-valued node ledgers.
func newLedgers(n int) []*timemodel.Clocks {
	clocks := make([]*timemodel.Clocks, n)
	for i := range clocks {
		clocks[i] = &timemodel.Clocks{}
	}
	return clocks
}

// departed counts p departed in its sender's ledger, as a send side
// does before Deliver.
func departed(clocks []*timemodel.Clocks, p Packet) Packet {
	clocks[p.From].CountDeparted(Records(p.Msgs))
	return p
}

// incPacket builds a packet for node 1 with one OpInc record per
// address.
func incPacket(addrs ...uint64) Packet {
	b := wire.NewBuilder(1, 1<<16)
	for _, a := range addrs {
		b.Append(wire.PackCmd(wire.OpInc, 0, 0), a, 1)
	}
	buf, msgs := b.Take()
	return Packet{From: 0, To: 1, Buf: buf, Msgs: msgs}
}

func recvWithin(t *testing.T, ch <-chan Packet) Packet {
	t.Helper()
	select {
	case p := <-ch:
		return p
	case <-time.After(5 * time.Second):
		t.Fatal("no packet")
		return Packet{}
	}
}

// TestDeliverCountsThenPushesAscending holds every bank's inbox full so
// Deliver must block bank by bank: freeing them in ascending order lets
// it through (any other push order would hang), and a sub-packet that is
// applied and Done while its siblings are still unpushed never makes the
// ledger balance: each retires only its own records.
func TestDeliverCountsThenPushesAscending(t *testing.T) {
	const banks = 4
	wantMsgs := [banks]int{1, 2, 1, 1} // addresses 0, 1 and 5, 2, 3
	clocks := newLedgers(2)
	e, err := NewEndpoint(clocks, AllNodes, banks, 1)
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < banks; b++ {
		e.inbox[1][b] <- Packet{Bank: -1} // filler, never retired
	}
	p := departed(clocks, incPacket(0, 1, 2, 3, 5))
	done := make(chan bool)
	go func() { done <- e.Deliver(p) }()
	for b := 0; b < banks; b++ {
		if p := recvWithin(t, e.BankInbox(1, b)); p.Bank != -1 {
			t.Fatalf("bank %d: got %+v before its filler", b, p)
		}
		p := recvWithin(t, e.BankInbox(1, b))
		if p.Bank != b || p.Msgs != wantMsgs[b] {
			t.Fatalf("bank %d sub-packet wrong: %+v", b, p)
		}
		e.Done(p)
		if b < banks-1 && e.Quiet() {
			t.Fatalf("quiet after bank %d with banks above it unpushed", b)
		}
	}
	if !<-done {
		t.Fatal("Deliver reported closed inboxes")
	}
	if !e.Quiet() {
		t.Fatal("not quiet after every sub-packet's Done")
	}
}

// TestDeliverRetiresUnpushedOnClose: a packet delivered into closed
// inboxes is reported, and the records that never reached an inbox are
// retired.
func TestDeliverRetiresUnpushedOnClose(t *testing.T) {
	for _, banks := range []int{1, 4} {
		clocks := newLedgers(2)
		e, err := NewEndpoint(clocks, AllNodes, banks, 1)
		if err != nil {
			t.Fatal(err)
		}
		e.Close()
		if e.Deliver(departed(clocks, incPacket(1, 3))) {
			t.Fatalf("banks=%d: Deliver reported success into closed inboxes", banks)
		}
		if !e.Quiet() {
			t.Fatalf("banks=%d: unpushed records still counted in flight", banks)
		}
	}
}

// TestDeliverRetiresEmptyPacket: an empty packet counts one record, so
// it holds quiet off like any other; scattered over banks it leaves no
// sub-packet to retire it, so Deliver does.
func TestDeliverRetiresEmptyPacket(t *testing.T) {
	for _, banks := range []int{1, 4} {
		clocks := newLedgers(2)
		e, err := NewEndpoint(clocks, AllNodes, banks, 1)
		if err != nil {
			t.Fatal(err)
		}
		e.Deliver(departed(clocks, Packet{From: 0, To: 1}))
		if banks == 1 {
			if e.Quiet() {
				t.Fatal("banks=1: quiet with an empty packet in the inbox")
			}
			e.Done(<-e.Inbox(1))
		}
		if !e.Quiet() {
			t.Fatalf("banks=%d: an empty packet was never retired", banks)
		}
	}
}

// TestObserveReadOrder: an observation whose staged read moves the
// ledger reports no quiet. A record counted departed during the staged
// read is missed by an observation that reads departed first; one
// consumed during it, by one that reads consumed only after it. Only a
// balanced ledger with nothing staged is quiet.
func TestObserveReadOrder(t *testing.T) {
	for _, tc := range []struct {
		name     string
		inFlight bool                           // one record departed, not consumed, before the observation
		staged   func([]*timemodel.Clocks) bool // the staged read
		quiet    bool
	}{
		{"departs mid-observation", false, func(c []*timemodel.Clocks) bool {
			c[0].CountDeparted(1) // a pump hands its last record to the fabric
			return false
		}, false},
		{"consumed mid-observation", true, func(c []*timemodel.Clocks) bool {
			c[1].CountConsumed(1) // a handler whose reply the departed read may miss
			return false
		}, false},
		{"staged", false, func([]*timemodel.Clocks) bool { return true }, false},
		{"balanced and idle", false, func([]*timemodel.Clocks) bool { return false }, true},
	} {
		clocks := newLedgers(2)
		if tc.inFlight {
			clocks[0].CountDeparted(1)
		}
		departed, consumed, idle := Observe(clocks, func() bool { return tc.staged(clocks) })
		if quiet := idle && departed == consumed; quiet != tc.quiet {
			t.Errorf("%s: quiet = %v (departed %d, consumed %d, idle %v), want %v", tc.name, quiet, departed, consumed, idle, tc.quiet)
		}
	}
}

// TestDeliverZeroAllocs pins the demux of a full 64 kB packet into four
// banks at zero heap allocations: the scratch table and both closures
// stay on Deliver's stack and every buffer cycles through the wire pool.
func TestDeliverZeroAllocs(t *testing.T) {
	if poolDrops() {
		t.Skip("sync.Pool drops a quarter of what is put under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection clears the pool
	const banks = 4
	clocks := newLedgers(2)
	e, err := NewEndpoint(clocks, AllNodes, banks, 4)
	if err != nil {
		t.Fatal(err)
	}
	addrs := make([]uint64, (64<<10)/wire.MsgWireBytes)
	for i := range addrs {
		addrs[i] = uint64(i)
	}
	tmpl := incPacket(addrs...)
	allocs := testing.AllocsPerRun(50, func() {
		p := tmpl
		p.Buf = append(wire.GetBuf(len(tmpl.Buf)), tmpl.Buf...)
		e.Deliver(departed(clocks, p))
		for b := 0; b < banks; b++ {
			e.Done(<-e.BankInbox(1, b))
		}
	})
	if allocs != 0 {
		t.Errorf("delivering a %d-byte packet to %d banks allocated %.2f times, want 0", len(tmpl.Buf), banks, allocs)
	}
	if !e.Quiet() {
		t.Fatal("not quiet")
	}
}

// poolDrops reports whether sync.Pool is discarding puts at random, as
// it does under the race detector.
func poolDrops() bool {
	var p sync.Pool
	for i := 0; i < 64; i++ {
		p.Put(new(int))
		if p.Get() == nil {
			return true
		}
	}
	return false
}
