package core

import (
	"sync/atomic"
	"testing"

	"gravel/internal/agg"
	"gravel/internal/rt"
)

// TestQuiesceFlushesEachQueueOnce: a step whose messages all go to one
// remote node and fit one per-node queue must leave as exactly one
// timeout-flushed packet, every rep, at the same modeled time. Quiesce
// used to flush as soon as the producer/consumer queue read empty,
// which is already true while an aggregator thread holds a claimed slot
// it has not repacked yet; the flush then sent the partial queue and the
// next round a second one (one extra per-packet charge).
func TestQuiesceFlushesEachQueueOnce(t *testing.T) {
	const (
		reps = 400
		size = 1 << 10
		half = size / 2
	)
	cl := New(Config{Nodes: 2})
	defer cl.Close()
	arr := cl.Space().Alloc(size) // node 1 owns [half, size)
	seed := uint64(13)
	var wantNs float64
	for rep := 0; rep < reps; rep++ {
		before := cl.nodes[0].Clocks.Snapshot().FlushesTimeout
		cl.Step("one-dest", []int{512, 0}, 0, func(c rt.Ctx) {
			g := c.Group()
			idx := make([]uint64, g.Size)
			one := make([]uint64, g.Size)
			g.Vector(func(l int) {
				x := (seed + uint64(g.GlobalID(l))) * 0x9e3779b97f4a7c15
				idx[l] = half + (x>>40)%half
				one[l] = 1
			})
			c.Inc(arr, idx, one, nil)
		})
		after := cl.nodes[0].Clocks.Snapshot().FlushesTimeout
		if after-before != 1 {
			t.Fatalf("rep %d: %d timeout flushes, want 1 (a per-node queue was split)", rep, after-before)
		}
		ns := cl.Phases()[rep].PhaseNs
		if rep == 0 {
			wantNs = ns
		} else if ns != wantNs {
			t.Fatalf("rep %d: modeled %v ns, rep 0 took %v", rep, ns, wantNs)
		}
	}
	if got := arr.Sum(); got != reps*512 {
		t.Fatalf("sum = %d, want %d", got, reps*512)
	}
}

// tearingAgg forces the interleaving a quiet observation can be torn
// by: its Pending, which Quiesce reads for the last node after every
// other, first runs tear.
type tearingAgg struct {
	agg.Strategy
	tear func()
}

func (a tearingAgg) Pending() bool {
	a.tear()
	return a.Strategy.Pending()
}

// TestQuiesceWaitsOutCascadeStagedMidObservation: while Quiesce checks
// whether every node has sent everything, node 1 sends an AM to node 0
// whose handler stages a follow-up on node 0, already checked; the
// packet is applied and the fabric is quiet again before Quiesce asks
// it. Two such observations in a row used to end the step with the
// last follow-up still staged.
func TestQuiesceWaitsOutCascadeStagedMidObservation(t *testing.T) {
	cl := New(Config{Nodes: 2})
	defer cl.Close()
	var followed atomic.Int64
	follow := cl.RegisterAM(func(int, uint64, uint64) { followed.Add(1) })
	lead := cl.RegisterAM(func(node int, _, _ uint64) { cl.HostAM(node, follow, 1-node, 0, 0) })
	const tears = 3
	torn := 0
	last := cl.nodes[1]
	last.Agg = tearingAgg{last.Agg, func() {
		if torn == tears {
			return
		}
		torn++
		cl.HostAM(1, lead, 0, 0, 0)
		last.Agg.Flush()
		cl.fab.Progress().Wait(cl.fab.Quiet)
	}}
	cl.Quiesce()
	if got := followed.Load(); torn != tears || got != tears {
		t.Fatalf("Quiesce returned after %d of %d torn observations with %d follow-ups applied", torn, tears, got)
	}
}
