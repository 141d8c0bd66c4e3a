package simt

import (
	"fmt"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"gravel/internal/timemodel"
)

// wfAggregateRef is the grouping WFAggregate shipped with before the
// counting pass: an O(width²) scan that re-evaluates destOf while it
// looks for each destination's leader and members. It is the oracle for
// the callback sequence and for every charge.
func wfAggregateRef(g *Group, active []bool, destOf func(lane int) int, f func(dest int, lanes []int)) {
	w := g.dev.Arch.WFWidth
	lanes := make([]int, 0, w)
	for base := 0; base < g.Size; base += w {
		end := base + w
		if end > g.Size {
			end = g.Size
		}
		count := 0
		for l := base; l < end; l++ {
			if active[l] {
				count++
			}
		}
		if count == 0 {
			continue
		}
		g.chargeVectorWFs(5, 1)
		if count < end-base {
			g.divergedOps++
		}
		for l := base; l < end; l++ {
			if !active[l] {
				continue
			}
			d := destOf(l)
			leader := true
			for p := base; p < l; p++ {
				if active[p] && destOf(p) == d {
					leader = false
					break
				}
			}
			if !leader {
				continue
			}
			lanes = lanes[:0]
			for p := l; p < end; p++ {
				if active[p] && destOf(p) == d {
					lanes = append(lanes, p)
				}
			}
			g.ChargeAtomics(1)
			f(d, lanes)
		}
	}
}

// wfCall is one WFAggregate callback.
type wfCall struct {
	dest  int
	lanes []int
}

// recordCalls returns a WFAggregate callback that appends each call to
// *calls (copying the lane list, which WFAggregate reuses).
func recordCalls(calls *[]wfCall) func(dest int, lanes []int) {
	return func(d int, lanes []int) { *calls = append(*calls, wfCall{d, slices.Clone(lanes)}) }
}

func sameCalls(a, b []wfCall) bool {
	return slices.EqualFunc(a, b, func(x, y wfCall) bool { return x.dest == y.dest && slices.Equal(x.lanes, y.lanes) })
}

type wfCharges struct{ cycles, atomics, divergedOps, vecOps int64 }

func chargesOf(g *Group) wfCharges {
	return wfCharges{g.cycles, g.atomics, g.divergedOps, g.vecOps}
}

// checkWFAgg runs one (mask, destinations) case through got (a group
// that may carry scratch from earlier cases) and through the reference
// on a fresh group, and compares the callbacks, the charges and the
// number of destOf evaluations.
func checkWFAgg(t testing.TB, got *Group, active []bool, dests []int) {
	t.Helper()
	size := len(active)
	ref := newGroup(got.dev, size)
	ref.reset(0, 0, size)
	got.reset(0, 0, size)

	var want, have []wfCall
	wfAggregateRef(ref, active, func(l int) int { return dests[l] }, recordCalls(&want))
	evals := make([]int, size)
	got.WFAggregate(active, func(l int) int { evals[l]++; return dests[l] }, recordCalls(&have))

	if !sameCalls(want, have) {
		t.Fatalf("callbacks differ (width %d, size %d)\nactive %v\ndests  %v\nwant %v\nhave %v",
			got.dev.Arch.WFWidth, size, active, dests, want, have)
	}
	if w, h := chargesOf(ref), chargesOf(got); w != h {
		t.Fatalf("charges differ: want %+v, have %+v", w, h)
	}
	for l, n := range evals {
		if (active[l] && n != 1) || (!active[l] && n != 0) {
			t.Fatalf("destOf(%d) evaluated %d times (lane active: %v)", l, n, active[l])
		}
	}

	// The slice entry point is the same grouping.
	have = nil
	got.reset(0, 0, size)
	got.WFAggregateDests(active, dests, recordCalls(&have))
	if !sameCalls(want, have) {
		t.Fatalf("WFAggregateDests callbacks differ: want %v, have %v", want, have)
	}
	if w, h := chargesOf(ref), chargesOf(got); w != h {
		t.Fatalf("WFAggregateDests charges differ: want %+v, have %+v", w, h)
	}
}

// wfCase draws a mask of the given density and destinations from a
// pool of distinct values (negative and huge ones included: a
// destination is just an int to the grouping).
func wfCase(r *rand.Rand, size, distinct int, density float64) (active []bool, dests []int) {
	pool := make([]int, distinct)
	for i := range pool {
		switch i % 4 {
		case 0:
			pool[i] = i
		case 1:
			pool[i] = -i
		case 2:
			pool[i] = i << 40
		default:
			pool[i] = i * 128 // collides in the low bits of any small table
		}
	}
	active = make([]bool, size)
	dests = make([]int, size)
	for l := range active {
		active[l] = r.Float64() < density
		dests[l] = pool[r.Intn(distinct)]
		if !active[l] {
			dests[l] = -1 << 62 // must never be read
		}
	}
	return active, dests
}

func deviceOfWidth(w int) *Device {
	a := GPUArch(timemodel.Default())
	if w == 1 {
		a = CPUArch(timemodel.Default())
	}
	a.WFWidth = w
	return NewDevice(a)
}

func TestWFAggregateMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, width := range []int{1, 2, 7, 32, 64} {
		d := deviceOfWidth(width)
		// One group takes every case of this width, largest WG first, so
		// each case runs on scratch the previous ones dirtied.
		g := newGroup(d, 300)
		for _, size := range []int{300, 256, 64, 100, 1, 65, 255} {
			for _, distinct := range []int{1, 2, 8, 64, 1000} {
				for _, density := range []float64{1, 0.9, 0.5, 0.05} {
					active, dests := wfCase(r, size, distinct, density)
					checkWFAgg(t, g, active, dests)
				}
			}
		}
	}
}

func TestWFAggregateInactiveWavefronts(t *testing.T) {
	d := deviceOfWidth(64)
	g := newGroup(d, 256)
	active := make([]bool, 256)
	dests := make([]int, 256)
	checkWFAgg(t, g, active, dests) // nothing active at all
	if c := chargesOf(g); c != (wfCharges{}) {
		t.Fatalf("an all-inactive work-group was charged %+v", c)
	}
	// Only wavefront 2 is active, on one lane; then only the partial
	// tail of a WG that is not a multiple of the width.
	active[2*64+5] = true
	dests[2*64+5] = 3
	checkWFAgg(t, g, active, dests)
	active = make([]bool, 130)
	active[129] = true
	checkWFAgg(t, g, active, make([]int, 130))
}

// TestWFAggregateAcrossLaunches drives the grouping the way a model
// does — inside kernels, on whatever pooled group the device hands the
// worker — with a different destination pattern every launch, so a
// table or class array left over from launch k would show in launch
// k+1.
func TestWFAggregateAcrossLaunches(t *testing.T) {
	d := deviceOfWidth(64)
	d.Parallelism = 1 // one worker: every launch draws the same group back
	r := rand.New(rand.NewSource(2))
	seen := map[*Group]int{}
	for launch, distinct := range []int{1000, 1, 64, 2, 8, 1000, 1} {
		const grid, wgSize = 700, 256 // last WG partial
		active, dests := wfCase(r, grid, distinct, 0.7)
		d.Launch(grid, wgSize, 0, func(g *Group) {
			seen[g]++
			lo, hi := g.Global0, g.Global0+g.Size
			ref := newGroup(d, g.Size)
			ref.reset(g.ID, g.Global0, g.Size)
			var want, have []wfCall
			wfAggregateRef(ref, active[lo:hi], func(l int) int { return dests[lo+l] }, recordCalls(&want))
			before := chargesOf(g)
			g.WFAggregateDests(active[lo:hi], dests[lo:hi], recordCalls(&have))
			if !sameCalls(want, have) {
				t.Errorf("launch %d WG %d: want %v, have %v", launch, g.ID, want, have)
			}
			if before != (wfCharges{}) || chargesOf(g) != chargesOf(ref) {
				t.Errorf("launch %d WG %d: charges %+v -> %+v, want 0 -> %+v", launch, g.ID, before, chargesOf(g), chargesOf(ref))
			}
		})
	}
	if len(seen) != 1 {
		t.Errorf("7 single-worker launches used %d groups, want the same one every time", len(seen))
	}
}

// TestGroupReuseStartsClean: a pooled group carries nothing of its last
// work-group into the next launch — counters, geometry, or the
// PredicatedLoop lane count a panicking loop body would leave set.
func TestGroupReuseStartsClean(t *testing.T) {
	d := testDevice()
	d.Parallelism = 1
	d.Launch(256, 256, 0, func(g *Group) {
		g.ChargeInstr(10)
		g.ChargeAtomics(3)
		g.ChargeMessages(7)
		g.Barrier()
		g.activeLanes = 5 // as if a PredicatedLoop body had unwound
	})
	d.Launch(100, 64, 0, func(g *Group) {
		if g.cycles != 0 || g.vecOps != 0 || g.atomics != 0 || g.barriers != 0 || g.divergedOps != 0 || g.messages != 0 {
			t.Errorf("WG %d starts with stale counters: %+v", g.ID, chargesOf(g))
		}
		if g.ActiveLaneCount() != g.Size {
			t.Errorf("WG %d: ActiveLaneCount %d, want its size %d", g.ID, g.ActiveLaneCount(), g.Size)
		}
		if want := min(64, 100-g.ID*64); g.Size != want || g.Global0 != g.ID*64 {
			t.Errorf("WG %d: size %d global0 %d", g.ID, g.Size, g.Global0)
		}
	})
	// A larger work-group than any pooled group was built for.
	d.Launch(1024, 1024, 0, func(g *Group) {
		mask := make([]bool, g.Size)
		if offs, _ := g.PrefixSumMask(mask); len(offs) != 1024 {
			t.Errorf("PrefixSumMask on a 1024-lane WG returned %d offsets", len(offs))
		}
	})
}

// TestParkReplacementWorkerOwnsItsGroup: the worker Park spawns while
// WG 0 waits must run WG 1 on a group of its own, not on the parked one.
func TestParkReplacementWorkerOwnsItsGroup(t *testing.T) {
	d := testDevice()
	d.Parallelism = 1
	var released atomic.Bool
	var groups [2]*Group
	d.Launch(2*64, 64, 0, func(g *Group) {
		groups[g.ID] = g
		if g.ID == 0 {
			g.ChargeInstr(1)
			g.Park(released.Load, nil)
			if g.ID != 0 || g.vecOps != 1 {
				t.Errorf("parked group was reused under its work-group: ID %d vecOps %d", g.ID, g.vecOps)
			}
			return
		}
		released.Store(true)
	})
	if groups[0] == nil || groups[0] == groups[1] {
		t.Fatalf("WG 0 and WG 1 ran on groups %p and %p", groups[0], groups[1])
	}
}

func TestWFAggregateWarmAllocsNothing(t *testing.T) {
	d := deviceOfWidth(64)
	g := newGroup(d, 256)
	g.reset(0, 0, 256)
	active, dests := wfCase(rand.New(rand.NewSource(3)), 256, 64, 0.8)
	destOf := func(l int) int { return dests[l] }
	sink := 0
	f := func(_ int, lanes []int) { sink += len(lanes) }
	g.WFAggregate(active, destOf, f) // warm: sizes the scratch
	if n := testing.AllocsPerRun(100, func() { g.WFAggregate(active, destOf, f) }); n != 0 {
		t.Fatalf("warm WFAggregate allocates %v times per call", n)
	}
	if n := testing.AllocsPerRun(100, func() { g.WFAggregateDests(active, dests, f) }); n != 0 {
		t.Fatalf("warm WFAggregateDests allocates %v times per call", n)
	}
}

// FuzzWFAggregate checks the counting pass against the reference on
// fuzzer-chosen geometry, masks and destinations. Each input byte is
// one lane: bit 7 clear = active, the low bits pick the destination,
// spread by mul so that table collisions are reachable.
func FuzzWFAggregate(f *testing.F) {
	f.Add(uint8(64), int64(1), []byte{0, 1, 2, 3, 0x80, 1, 1, 0})
	f.Add(uint8(1), int64(-7), []byte{5, 5, 0x85, 9})
	f.Add(uint8(4), int64(1<<33), []byte{1, 2, 3, 4, 4, 3, 2, 1, 0x81})
	f.Add(uint8(64), int64(128), make([]byte, 200))
	f.Add(uint8(3), int64(0), []byte{0x80, 0x80, 0x80, 0x80})
	groups := map[int]*Group{} // per width, reused across inputs
	f.Fuzz(func(t *testing.T, width uint8, mul int64, lanes []byte) {
		w := int(width%64) + 1
		if len(lanes) == 0 || len(lanes) > 1024 {
			return
		}
		g := groups[w]
		if g == nil || cap(g.offs) < len(lanes) {
			g = newGroup(deviceOfWidth(w), len(lanes))
			groups[w] = g
		}
		active := make([]bool, len(lanes))
		dests := make([]int, len(lanes))
		for l, b := range lanes {
			active[l] = b&0x80 == 0
			dests[l] = int(int64(b&0x7f) * mul)
		}
		checkWFAgg(t, g, active, dests)
	})
}

// BenchmarkWFAggregate reports ns per message for a full 256-lane
// work-group spraying 1..64 distinct destinations. The counting pass
// makes it flat in the destination count; the scan it replaced was
// quadratic (dests=64 cost ~20x dests=1).
func BenchmarkWFAggregate(b *testing.B) {
	for _, distinct := range []int{1, 2, 8, 64} {
		b.Run(fmt.Sprintf("dests=%d", distinct), func(b *testing.B) {
			d := deviceOfWidth(64)
			g := newGroup(d, 256)
			g.reset(0, 0, 256)
			active := make([]bool, 256)
			dests := make([]int, 256)
			r := rand.New(rand.NewSource(4))
			for l := range active {
				active[l] = true
				dests[l] = r.Intn(distinct)
			}
			destOf := func(l int) int { return dests[l] }
			sink := 0
			f := func(_ int, lanes []int) { sink += len(lanes) }
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.WFAggregate(active, destOf, f)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*256), "ns/msg")
		})
	}
}
