package agg

import (
	"runtime/debug"
	"sync"
	"testing"

	"gravel/internal/fabric"
	"gravel/internal/obs"
	"gravel/internal/queue"
	"gravel/internal/timemodel"
	"gravel/internal/wire"
)

// TestAllocsPerRunFlushRoundTrip pins the pooled packet lifecycle to zero
// steady-state heap allocations: staging a full per-node queue, flushing
// it onto the fabric, applying it, and recycling with Done must reuse
// the same pooled buffer every cycle. GC is disabled for the
// measurement so a collection cannot clear the pool's victim cache and
// masquerade as a hot-path allocation.
func TestAllocsPerRunFlushRoundTrip(t *testing.T) {
	if obs.Enabled() {
		t.Fatal("flight recorder is enabled; this guard pins the disabled path")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	p := timemodel.Default()
	clocks := []*timemodel.Clocks{{}, {}}
	fab := fabric.New(p, clocks)
	q := queue.NewGravel(64, wire.SlotRows, 4)
	a := New(0, p, q, fab, clocks[0], false)

	msgsPerPacket := p.PerNodeQueueBytes / wire.MsgWireBytes
	cmd := wire.PackCmd(wire.OpInc, 0, 1)
	drain := func() {
		for {
			select {
			case pkt := <-fab.Inbox(1):
				fab.Done(pkt)
			default:
				return
			}
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		for m := 0; m < msgsPerPacket; m++ {
			a.AppendDirect(1, cmd, uint64(m), 1, 0)
		}
		a.Flush()
		drain()
	})
	if allocs != 0 {
		t.Fatalf("aggregator flush round trip allocated %.2f times per op, want 0", allocs)
	}
}

// TestAllocsPerRunRepackDrain is the same guard over the queue-drain path:
// one committed slot repacked into builders, flushed, applied, and
// recycled.
func TestAllocsPerRunRepackDrain(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	op, _ := repackRoundTrip()
	if allocs := testing.AllocsPerRun(100, op); allocs != 0 {
		t.Fatalf("repack/drain round trip allocated %.2f times per op, want 0", allocs)
	}
}

// repackRoundTrip returns one op of the ticket strategy's queue-drain
// path — one full 256-message work-group slot reserved, committed,
// drained and repacked into the per-node builders; Flush, which sends
// the part-filled builder (a slot does not fill a 64 kB queue); Done,
// which recycles its buffer — and the op's message count.
func repackRoundTrip() (op func(), msgs int) {
	p := timemodel.Default()
	clocks := []*timemodel.Clocks{{}, {}}
	fab := fabric.New(p, clocks)
	const cols = 256
	q := queue.NewGravel(64, wire.SlotRows, cols)
	a := New(0, p, q, fab, clocks[0], false)

	cmd := wire.PackCmd(wire.OpInc, 0, 1)
	return func() {
		s := q.Reserve(cols)
		for m := 0; m < cols; m++ {
			s.Row(wire.RowCmd)[m] = cmd
			s.Row(wire.RowDest)[m] = 1
			s.Row(wire.RowA)[m] = uint64(m)
			s.Row(wire.RowB)[m] = 1
		}
		s.Commit()
		for q.TryConsume(a.consume) {
		}
		a.Flush()
		for {
			select {
			case pkt := <-fab.Inbox(1):
				fab.Done(pkt)
			default:
				return
			}
		}
	}, cols
}

// poolDrops reports whether sync.Pool discards what is Put into it, as
// it does at random under the race detector; a guard on a pooled buffer
// lifecycle cannot hold then.
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

// archiveRoundTrip returns one op of the archive strategy's hot path —
// a full per-node queue appended a wavefront at a time, which stages it;
// Flush, which transmits it; Done, which recycles its buffer — and the
// op's wire bytes.
func archiveRoundTrip() (op func(), bytes int) {
	p := timemodel.Default()
	clocks := []*timemodel.Clocks{{}, {}}
	fab := fabric.New(p, clocks)
	ar := NewArchive(0, p, queue.NewGravel(64, wire.SlotRows, 4), fab, clocks[0], true)

	const wf = 64
	wfs := p.PerNodeQueueBytes / wire.MsgWireBytes / wf
	lanes, a, v := make([]int, wf), make([]uint64, wf), make([]uint64, wf)
	for l := range lanes {
		lanes[l], a[l], v[l] = l, uint64(l), 1
	}
	cmd := wire.PackCmd(wire.OpInc, 0, 1)
	cmdOf := func(int) uint64 { return cmd }
	return func() {
		for w := 0; w < wfs; w++ {
			ar.AppendWF(1, lanes, cmdOf, a, v)
		}
		ar.Flush()
		for {
			select {
			case pkt := <-fab.Inbox(1):
				fab.Done(pkt)
			default:
				return
			}
		}
	}, wfs * wf * wire.MsgWireBytes
}

// TestAllocsPerRunArchiveRoundTrip is the same guard over the archive
// strategy: segments come from the packet pool and go straight into the
// driver's outbox, so a steady-state round trip allocates nothing.
func TestAllocsPerRunArchiveRoundTrip(t *testing.T) {
	if poolDrops() {
		t.Skip("sync.Pool is dropping buffers (race detector)")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	op, _ := archiveRoundTrip()
	if allocs := testing.AllocsPerRun(50, op); allocs != 0 {
		t.Fatalf("archive round trip allocated %.2f times per op, want 0", allocs)
	}
}
