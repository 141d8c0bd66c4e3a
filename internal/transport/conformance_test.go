package transport

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gravel/internal/fabric"
	"gravel/internal/timemodel"
	"gravel/internal/wire"
)

// endFabric is what the runtime uses of a fabric's receive side.
type endFabric interface {
	fabric.Fabric
}

// rig is one fabric under the conformance table: a 2-node cluster seen
// node by node, so the in-process fabrics (one object hosting both
// nodes) and the TCP pair (one object per node) read the same.
type rig struct {
	at    func(node int) endFabric
	clock func(node int) *timemodel.Clocks
	quiet func() bool
	// A payload that is not a whole number of records cannot cross a
	// validating wire: loopback's decoder drops and counts it, and on
	// TCP it would poison the stream forever, so there the row is a
	// self-send — the one way such a buffer reaches TCP's endpoint.
	misFrom    int
	misDropped bool
	// fail declares node's fabric failed; nil where a fabric cannot fail.
	fail func(node int)
}

var rigs = []struct {
	name  string
	build func(t *testing.T, banks int) rig
}{
	{"chan", func(t *testing.T, banks int) rig {
		clocks := newClocks(2)
		f := fabric.NewBanked(timemodel.Default(), clocks, banks)
		t.Cleanup(f.Close)
		return rig{at: func(int) endFabric { return f }, clock: func(n int) *timemodel.Clocks { return clocks[n] }, quiet: f.Quiet}
	}},
	{"loopback", func(t *testing.T, banks int) rig {
		clocks := newClocks(2)
		l := NewLoopbackBanked(timemodel.Default(), clocks, banks)
		t.Cleanup(l.Close)
		return rig{at: func(int) endFabric { return l }, clock: func(n int) *timemodel.Clocks { return clocks[n] }, quiet: l.Quiet, misDropped: true}
	}},
	{"tcp", func(t *testing.T, banks int) rig {
		fabs := newTCPClusterWith(t, 2, fabric.Options{ResolverBanks: banks})
		t.Cleanup(func() { closeAll(fabs) })
		return rig{at: func(n int) endFabric { return fabs[n] }, clock: func(n int) *timemodel.Clocks { return fabs[n].clocks[n] },
			quiet: func() bool { return allQuiet(fabs) }, misFrom: 1,
			fail: func(n int) { fabs[n].fail(errors.New("conformance: injected failure")) }}
	}},
}

// mixedBuf is a per-node queue whose records touch banks 1, 3, 0
// (an active message), 1 and 0 of four, in that order.
func mixedBuf() ([]byte, int) {
	b := wire.NewBuilder(1, 1<<12)
	inc := wire.PackCmd(wire.OpInc, 0, 0)
	b.Append(inc, 1, 1)
	b.Append(inc, 3, 1)
	b.Append(wire.PackCmd(wire.OpAM, 2, 0), 7, 1)
	b.Append(inc, 5, 1)
	b.Append(inc, 8, 1)
	return b.Take()
}

// wantPackets is the contract: a whole packet on bank 0, or exactly
// ScatterBanks' partition as sub-packets in its (ascending) bank order.
func wantPackets(from, to int, buf []byte, msgs, banks int) []fabric.Packet {
	if banks == 1 || len(buf)%wire.MsgWireBytes != 0 {
		return []fabric.Packet{{From: from, To: to, Buf: buf, Msgs: msgs}}
	}
	var want []fabric.Packet
	fabric.ScatterBanks(buf, banks, func(bank int, sub []byte, m int) {
		want = append(want, fabric.Packet{From: from, To: to, Buf: bytes.Clone(sub), Msgs: m, Bank: bank})
		wire.PutBuf(sub)
	})
	return want
}

func samePacket(got, want fabric.Packet) bool {
	return got.From == want.From && got.To == want.To && got.Msgs == want.Msgs &&
		got.Bank == want.Bank && bytes.Equal(got.Buf, want.Buf)
}

// TestFabricConformance drives the one receive endpoint through every
// fabric that embeds it.
func TestFabricConformance(t *testing.T) {
	mixed, mixedMsgs := mixedBuf()
	misaligned := append(bytes.Clone(mixed), 0xff)
	type row struct {
		name     string
		from, to int
		buf      []byte
		msgs     int
		hook     bool
	}
	for _, rg := range rigs {
		for _, banks := range []int{1, 4} {
			rows := []row{
				{name: "direct", from: 0, to: 1, buf: mixed, msgs: mixedMsgs},
				{name: "self-hook", from: 1, to: 1, buf: mixed, msgs: mixedMsgs, hook: true},
				{name: "self-no-hook", from: 1, to: 1, buf: mixed, msgs: mixedMsgs},
				{name: "zero-records", from: 0, to: 1},
			}
			for _, r := range rows {
				t.Run(fmt.Sprintf("%s/banks=%d/%s", rg.name, banks, r.name), func(t *testing.T) {
					rig := rg.build(t, banks)
					want := wantPackets(r.from, r.to, r.buf, r.msgs, banks)
					var bypassed []fabric.Packet
					if r.hook {
						rig.at(r.to).SetLocalApply(func(p fabric.Packet) {
							p.Buf = bytes.Clone(p.Buf)
							bypassed = append(bypassed, p)
						})
						want = nil
					}
					deliver(t, rig, r.from, r.to, r.buf, r.msgs, want)
					s := rig.clock(r.from).Snapshot()
					if r.from == r.to {
						if s.SelfPkts != 1 {
							t.Errorf("SelfPkts = %d, want 1", s.SelfPkts)
						}
						if s.PktsSent != 0 {
							t.Error("self packet counted as a wire packet")
						}
					} else if got := rig.at(r.from).NetMetrics().PerDest[r.to].Packets.Load(); got != 1 || s.PktsSent != 1 {
						t.Errorf("PerDest[%d].Packets = %d, sender's ledger %d wire packets; want 1, 1", r.to, got, s.PktsSent)
					}
					if !r.hook {
						return
					}
					// Synchronous: applied, whole, before Send returned.
					whole := fabric.Packet{From: r.from, To: r.to, Buf: r.buf, Msgs: r.msgs}
					if len(bypassed) != 1 || !samePacket(bypassed[0], whole) {
						t.Fatalf("bypass applied %+v, want one whole packet", bypassed)
					}
				})
			}
			t.Run(fmt.Sprintf("%s/banks=%d/misaligned", rg.name, banks), func(t *testing.T) {
				rig := rg.build(t, banks)
				var want []fabric.Packet
				if !rig.misDropped {
					want = wantPackets(rig.misFrom, 1, misaligned, mixedMsgs, banks)
				}
				deliver(t, rig, rig.misFrom, 1, misaligned, mixedMsgs, want)
				if got := rig.at(1).NetMetrics().Malformed.Load(); (got == 1) != rig.misDropped {
					t.Errorf("Malformed = %d, dropped = %v", got, rig.misDropped)
				}
			})
			t.Run(fmt.Sprintf("%s/banks=%d/recycles", rg.name, banks), func(t *testing.T) {
				recycles(t, rg.build(t, banks), banks)
			})
			t.Run(fmt.Sprintf("%s/banks=%d/close-after-fail", rg.name, banks), func(t *testing.T) {
				rig := rg.build(t, banks)
				if rig.fail == nil {
					t.Skip("an in-process fabric cannot fail")
				}
				// Streams up both ways, so node 0 holds a connection its
				// peer, which is not closing, will not FIN.
				deliver(t, rig, 0, 1, mixed, mixedMsgs, wantPackets(0, 1, mixed, mixedMsgs, banks))
				deliver(t, rig, 1, 0, mixed, mixedMsgs, wantPackets(1, 0, mixed, mixedMsgs, banks))
				rig.fail(0)
				start := time.Now()
				rig.at(0).Close()
				if d := time.Since(start); d > 100*time.Millisecond {
					t.Errorf("Close after fail took %v: a failed transport cuts, it does not drain", d)
				}
				rig.fail(1) // so the cleanup's Close cuts too
			})
		}
	}
}

// deliver sends one packet and checks that it arrives as exactly want,
// that the cluster is never quiet between Send returning and the last
// Done — sampled from a second goroutine while the last bank holds its
// share — and that it quiesces afterwards.
func deliver(t *testing.T, rig rig, from, to int, buf []byte, msgs int, want []fabric.Packet) {
	t.Helper()
	own := append(wire.GetBuf(len(buf)), buf...) // Send takes ownership
	rig.at(from).Send(from, to, own, msgs)
	recv := rig.at(to)
	if len(want) > 0 {
		var samples, quiet atomic.Int64
		stop, stopped := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(stopped)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if rig.quiet() {
					quiet.Add(1)
				}
				samples.Add(1)
			}
		}()
		sampling := true
		halt := func() {
			if sampling {
				sampling = false
				close(stop)
				<-stopped
			}
		}
		defer halt() // not left polling a closed fabric if a check below is fatal
		got := make([]fabric.Packet, len(want))
		for i, w := range want {
			select {
			case got[i] = <-recv.BankInbox(to, w.Bank):
			case <-time.After(5 * time.Second):
				t.Fatalf("bank %d never received its packet", w.Bank)
			}
			if !samePacket(got[i], w) {
				t.Errorf("bank %d got %+v, want %+v", w.Bank, got[i], w)
			}
		}
		last := len(got) - 1
		for _, p := range got[:last] {
			recv.Done(p)
		}
		for s0 := samples.Load(); samples.Load() < s0+3; {
			time.Sleep(100 * time.Microsecond)
		}
		halt()
		if n := quiet.Load(); n != 0 {
			t.Errorf("Quiet was true %d of %d times between Send and the last Done", n, samples.Load())
		}
		recv.Done(got[last])
	}
	waitQuiet(t, "fabric", rig.quiet)
	for bank := 0; bank < recv.Banks(); bank++ {
		select {
		case p := <-recv.BankInbox(to, bank):
			t.Errorf("unexpected packet on bank %d: %+v", bank, p)
		default:
		}
	}
}

// recycles checks that every buffer a fabric draws from the wire pool
// on the way to an inbox goes back to it: over many packets the runtime
// must allocate far fewer fresh buffers of the packets' size class than
// one per packet. Counting allocations, with the collector off so the
// pool keeps what it is given, measures recycling whichever pooled
// buffer each Get happens to return.
func recycles(t *testing.T, rig rig, banks int) {
	if poolDrops() {
		t.Skip("sync.Pool drops a quarter of what is put under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	b := wire.NewBuilder(1, 1<<12)
	for a := uint64(0); a < 64; a++ { // 1.5 kB: above the pool's floor
		b.Append(wire.PackCmd(wire.OpInc, 0, 0), a, 1)
	}
	tmpl, msgs := b.Take()
	const class = 2 << 10 // the pool rounds 1.5 kB up to this size class
	const rounds = 200
	before := mallocs(class)
	for i := 0; i < rounds; i++ {
		own := append(wire.GetBuf(len(tmpl)), tmpl...)
		rig.at(0).Send(0, 1, own, msgs)
		for bank := 0; bank < banks; bank++ {
			rig.at(1).Done(<-rig.at(1).BankInbox(1, bank))
		}
		// The packet's buffers are back once it is applied, Done and, on
		// TCP, acknowledged, which quiet implies; how long the sender's
		// window holds a frame before its ack is not what is measured.
		waitQuiet(t, "fabric", rig.quiet)
	}
	if fresh := mallocs(class) - before; fresh > rounds/4 {
		t.Errorf("%d packets allocated %d fresh %d-byte buffers: not recycled", rounds, fresh, class)
	}
}

// mallocs returns how many objects of the size class of exactly size
// bytes the runtime has allocated so far.
func mallocs(size uint32) uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	for _, c := range ms.BySize {
		if c.Size == size {
			return c.Mallocs
		}
	}
	panic(fmt.Sprintf("no %d-byte size class", size))
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
