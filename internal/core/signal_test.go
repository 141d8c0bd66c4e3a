package core

import (
	"sync/atomic"
	"testing"

	"gravel/internal/rt"
)

// runSignalOrdering drives the PUT_SIGNAL ordering property on a
// 2-node cluster: node 0's lanes each signalled-put a distinct data
// cell of node 1's symmetric bank, all sharing one arrival counter,
// while node 1's scanner work-group repeatedly waits for rising
// thresholds and checks the invariant that makes signalled puts
// useful — the number of visible data cells is never below the
// observed signal count (signal implies data). Returns the number of
// invariant violations observed.
func runSignalOrdering(t *testing.T, shards int) int64 {
	t.Helper()
	cl := New(Config{Nodes: 2, ResolverShards: shards})
	defer cl.Close()

	const cells = 256
	data := cl.Space().SymAlloc(cells)
	sig := cl.Space().SymAlloc(1)
	var violations int64

	cl.Step("putsig", []int{cells, 1}, 0, func(c rt.Ctx) {
		g := c.Group()
		if c.Node() == 0 {
			idx := make([]uint64, g.Size)
			val := make([]uint64, g.Size)
			si := make([]uint64, g.Size)
			g.Vector(func(l int) {
				idx[l] = data.SymIndex(1, g.GlobalID(l))
				val[l] = uint64(g.GlobalID(l)) + 1
				si[l] = sig.SymIndex(1, 0)
			})
			c.PutSignal(data, idx, val, sig, si, nil)
			return
		}
		// Node 1: the scanner. At each threshold, load the counter
		// first, then count populated cells — the resolver applies the
		// store before the increment under the same bank lock, so every
		// increment the load observed must have its data visible.
		mask := make([]bool, g.Size)
		si := make([]uint64, g.Size)
		until := make([]uint64, g.Size)
		mask[0] = true
		si[0] = sig.SymIndex(1, 0)
		for thr := 32; thr <= cells; thr += 32 {
			until[0] = uint64(thr)
			c.WaitUntil(sig, si, until, mask)
			observed := sig.Load(si[0])
			seen := uint64(0)
			for i := 0; i < cells; i++ {
				if data.Load(data.SymIndex(1, i)) != 0 {
					seen++
				}
			}
			if seen < observed {
				atomic.AddInt64(&violations, 1)
			}
		}
	})

	// At quiescence every put has landed exactly once.
	if got := sig.Load(sig.SymIndex(1, 0)); got != cells {
		t.Errorf("shards=%d: arrival counter = %d, want %d", shards, got, cells)
	}
	for i := 0; i < cells; i++ {
		if got := data.Load(data.SymIndex(1, i)); got != uint64(i)+1 {
			t.Errorf("shards=%d: data cell %d = %d, want %d", shards, i, got, i+1)
			break
		}
	}
	st := cl.Stats()
	if st.PGAS.Signals != cells {
		t.Errorf("shards=%d: PGAS.Signals = %d, want %d", shards, st.PGAS.Signals, cells)
	}
	if st.PGAS.Waits != cells/32 {
		t.Errorf("shards=%d: PGAS.Waits = %d, want %d", shards, st.PGAS.Waits, cells/32)
	}
	return atomic.LoadInt64(&violations)
}

// TestPutSignalOrderingSharded: the signal-implies-data guarantee must
// hold with the serial network thread and with banked receive-side
// resolution — the signal and its data resolve under the same bank
// lock, so sharding cannot split them.
func TestPutSignalOrderingSharded(t *testing.T) {
	for _, shards := range []int{1, 4} {
		if v := runSignalOrdering(t, shards); v != 0 {
			t.Errorf("shards=%d: %d signal-before-data violations", shards, v)
		}
	}
}

// TestWaitUntilDoesNotTripQuiescence: a work-group parked in WaitUntil
// must not wedge its launch or let the step terminate early — later
// work-groups of the same node keep executing (Park spawns replacement
// workers), remote delivery keeps progressing, and Step returns only
// after the waiter was released by the real signal count.
func TestWaitUntilDoesNotTripQuiescence(t *testing.T) {
	cl := New(Config{Nodes: 2, WGSize: 64})
	defer cl.Close()

	const senders = 192 // node 0 work-items, one signalled put each
	sig := cl.Space().SymAlloc(1)
	scratch := cl.Space().Alloc(64)
	var released atomic.Int64

	// Node 1's grid: WG 0 (work-items 0..63) parks on the counter;
	// seven more WGs of unrelated local work must still be scheduled
	// and complete while it is parked.
	cl.Step("wait", []int{senders, 8 * 64}, 0, func(c rt.Ctx) {
		g := c.Group()
		if c.Node() == 0 {
			idx := make([]uint64, g.Size)
			val := make([]uint64, g.Size)
			si := make([]uint64, g.Size)
			g.Vector(func(l int) {
				idx[l] = 63 // scratch cell 63 is owned by node 1, like the counter
				val[l] = 1
				si[l] = sig.SymIndex(1, 0)
			})
			c.PutSignal(scratch, idx, val, sig, si, nil)
			return
		}
		if g.ID == 0 {
			mask := make([]bool, g.Size)
			si := make([]uint64, g.Size)
			until := make([]uint64, g.Size)
			mask[0] = true
			si[0] = sig.SymIndex(1, 0)
			until[0] = senders
			c.WaitUntil(sig, si, until, mask)
			if sig.Load(si[0]) >= senders {
				released.Add(1)
			}
			return
		}
		// Unrelated local work from the later WGs.
		idx := make([]uint64, g.Size)
		one := make([]uint64, g.Size)
		g.Vector(func(l int) {
			idx[l] = uint64(l % 32) // low half: owned by node 0 (remote)
			one[l] = 1
		})
		c.Inc(scratch, idx, one, nil)
	})

	if released.Load() != 1 {
		t.Fatal("waiter was not released by the signal count")
	}
	if got := sig.Load(sig.SymIndex(1, 0)); got != senders {
		t.Fatalf("arrival counter = %d, want %d", got, senders)
	}
	if got := cl.Stats().PGAS.Waits; got != 1 {
		t.Fatalf("PGAS.Waits = %d, want 1", got)
	}
}

// TestWaitUntilDeterministicTime: the wait charges a fixed virtual-time
// cost, not wall-clock spin time, so repeated runs of a park-heavy
// step must agree on virtual time exactly.
func TestWaitUntilDeterministicTime(t *testing.T) {
	run := func() float64 {
		cl := New(Config{Nodes: 2, WGSize: 64})
		defer cl.Close()
		data := cl.Space().SymAlloc(64)
		sig := cl.Space().SymAlloc(1)
		cl.Step("ws", []int{64, 64}, 0, func(c rt.Ctx) {
			g := c.Group()
			if c.Node() == 0 {
				idx := make([]uint64, g.Size)
				val := make([]uint64, g.Size)
				si := make([]uint64, g.Size)
				g.Vector(func(l int) {
					idx[l] = data.SymIndex(1, l)
					val[l] = uint64(l) + 1
					si[l] = sig.SymIndex(1, 0)
				})
				c.PutSignal(data, idx, val, sig, si, nil)
				return
			}
			mask := make([]bool, g.Size)
			si := make([]uint64, g.Size)
			until := make([]uint64, g.Size)
			mask[0] = true
			si[0] = sig.SymIndex(1, 0)
			until[0] = 64
			c.WaitUntil(sig, si, until, mask)
		})
		return cl.VirtualTimeNs()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("park-heavy step virtual time nondeterministic: %v vs %v", a, b)
	}
	if a <= 0 {
		t.Fatalf("virtual time %v", a)
	}
}

// TestSignalVerbMaskErrors: the signal verbs share the runtime's one
// mask convention. A mask of the wrong length is a *MaskError naming
// the verb (TestUnwindTable's MaskError rows); an all-false mask is
// valid and a no-op.
func TestSignalVerbMaskErrors(t *testing.T) {
	cl := New(Config{Nodes: 2, WGSize: 64})
	defer cl.Close()
	sig := cl.Space().SymAlloc(1)

	// An all-false mask is valid and a no-op: WaitUntil returns without
	// parking or charging a wait.
	before := cl.Stats().PGAS.Waits
	cl.Step("noop", []int{1, 0}, 0, func(c rt.Ctx) {
		g := c.Group()
		c.WaitUntil(sig, make([]uint64, g.Size), make([]uint64, g.Size), make([]bool, g.Size))
	})
	if got := cl.Stats().PGAS.Waits; got != before {
		t.Fatalf("no-active-lane WaitUntil charged a wait (%d -> %d)", before, got)
	}
}
