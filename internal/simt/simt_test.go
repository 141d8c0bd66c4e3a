package simt

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"gravel/internal/timemodel"
)

func testDevice() *Device {
	return NewDevice(GPUArch(timemodel.Default()))
}

func TestLaunchCoversGrid(t *testing.T) {
	d := testDevice()
	const grid = 1000
	var hits [grid]atomic.Int32
	d.Launch(grid, 256, 0, func(g *Group) {
		g.Vector(func(l int) {
			hits[g.GlobalID(l)].Add(1)
		})
	})
	for i := range hits {
		if hits[i].Load() != 1 {
			t.Fatalf("work-item %d executed %d times", i, hits[i].Load())
		}
	}
	if got := d.Counters.WGLaunches.Load(); got != 4 {
		t.Fatalf("WGLaunches = %d, want 4", got)
	}
}

func TestLaunchAtOffsets(t *testing.T) {
	d := testDevice()
	var min, max atomic.Int64
	min.Store(1 << 60)
	d.LaunchAt(100, 5000, 64, 0, func(g *Group) {
		g.Vector(func(l int) {
			id := int64(g.GlobalID(l))
			for {
				m := min.Load()
				if id >= m || min.CompareAndSwap(m, id) {
					break
				}
			}
			for {
				m := max.Load()
				if id <= m || max.CompareAndSwap(m, id) {
					break
				}
			}
		})
	})
	if min.Load() != 5000 || max.Load() != 5099 {
		t.Fatalf("global ID range [%d,%d], want [5000,5099]", min.Load(), max.Load())
	}
}

func TestPartialLastWG(t *testing.T) {
	d := testDevice()
	var sizes []int
	var mu chan struct{} = make(chan struct{}, 1)
	mu <- struct{}{}
	d.Launch(300, 256, 0, func(g *Group) {
		<-mu
		sizes = append(sizes, g.Size)
		mu <- struct{}{}
	})
	total := 0
	for _, s := range sizes {
		total += s
	}
	if total != 300 || len(sizes) != 2 {
		t.Fatalf("sizes = %v", sizes)
	}
}

func TestWGOps(t *testing.T) {
	d := testDevice()
	d.Launch(256, 256, 0, func(g *Group) {
		vals := make([]int, g.Size)
		for l := range vals {
			vals[l] = l % 17
		}
		if got := g.ReduceMaxInt(vals); got != 16 {
			t.Errorf("ReduceMax = %d, want 16", got)
		}
		mask := make([]bool, g.Size)
		for l := 0; l < g.Size; l += 2 {
			mask[l] = true
		}
		offs, n := g.PrefixSumMask(mask)
		if n != 128 {
			t.Errorf("PrefixSumMask total = %d, want 128", n)
		}
		if offs[0] != 0 || offs[1] != 1 || offs[2] != 1 || offs[4] != 2 {
			t.Errorf("offsets wrong: %v", offs[:5])
		}
		if g.Broadcast(42) != 42 {
			t.Errorf("Broadcast")
		}
	})
}

// TestPrefixSumMaskProperty: offsets of active lanes are exactly
// 0..n-1 in lane order.
func TestPrefixSumMaskProperty(t *testing.T) {
	d := testDevice()
	f := func(raw []bool) bool {
		size := len(raw)
		if size == 0 {
			size = 1
			raw = []bool{true}
		}
		if size > 256 {
			size = 256
			raw = raw[:256]
		}
		ok := true
		d.Launch(size, size, 0, func(g *Group) {
			offs, n := g.PrefixSumMask(raw)
			next := 0
			for l := 0; l < g.Size; l++ {
				if raw[l] {
					if offs[l] != next {
						ok = false
					}
					next++
				}
			}
			if next != n {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPredicatedLoopActiveSets(t *testing.T) {
	d := testDevice()
	d.Launch(128, 128, 0, func(g *Group) {
		counts := make([]int, g.Size)
		for l := range counts {
			counts[l] = l % 5
		}
		executed := make([]int, g.Size)
		g.PredicatedLoop(counts, 1, func(i int, active []bool) {
			for l := 0; l < g.Size; l++ {
				if active[l] {
					if i >= counts[l] {
						t.Errorf("lane %d active at iter %d beyond count %d", l, i, counts[l])
					}
					executed[l]++
				}
			}
			if got, want := g.ActiveLaneCount(), countTrue(active); got != want {
				t.Errorf("ActiveLaneCount = %d, want %d", got, want)
			}
		})
		for l, c := range counts {
			if executed[l] != c {
				t.Errorf("lane %d executed %d iters, want %d", l, executed[l], c)
			}
		}
	})
}

func countTrue(b []bool) int {
	n := 0
	for _, v := range b {
		if v {
			n++
		}
	}
	return n
}

func TestPredicatedLoopZeroCounts(t *testing.T) {
	d := testDevice()
	ran := false
	d.Launch(64, 64, 0, func(g *Group) {
		counts := make([]int, g.Size)
		g.PredicatedLoop(counts, 1, func(int, []bool) { ran = true })
	})
	if ran {
		t.Fatal("body ran with all-zero counts")
	}
}

// TestDivergenceModeCosts: for a sparse predicated loop, software
// predication must cost the most and WG-reconvergence the least; fbar
// lands between (§8.2 ordering).
func TestDivergenceModeCosts(t *testing.T) {
	cost := func(mode DivergenceMode) int64 {
		d := testDevice()
		d.Mode = mode
		d.Launch(2048, 256, 0, func(g *Group) {
			counts := make([]int, g.Size)
			for l := range counts {
				if l%101 == 0 { // very sparse activity: whole WFs go idle
					counts[l] = 1 + l%8
				}
			}
			g.PredicatedLoop(counts, 4, func(int, []bool) {})
		})
		return d.Counters.Cycles.Load()
	}
	sw := cost(SoftwarePredication)
	wgcf := cost(WGReconvergence)
	fbar := cost(FineGrainBarrier)
	if !(sw > wgcf) {
		t.Errorf("sw-pred (%d) should cost more than wg-reconvergence (%d)", sw, wgcf)
	}
	if !(fbar < sw) {
		t.Errorf("fbar (%d) should cost less than sw-pred (%d)", fbar, sw)
	}
}

func TestOccupancy(t *testing.T) {
	d := testDevice()
	wgs, slow := d.Occupancy(0)
	if wgs != 8 || slow != 1 {
		t.Fatalf("no-scratch occupancy = %d/%v", wgs, slow)
	}
	wgs, slow = d.Occupancy(32 << 10) // half the scratchpad per WG
	if wgs != 2 || slow != 2 {
		t.Fatalf("32kB occupancy = %d/%v, want 2/2", wgs, slow)
	}
	wgs, slow = d.Occupancy(128 << 10) // more than the scratchpad
	if wgs != 1 || slow != 4 {
		t.Fatalf("oversized occupancy = %d/%v, want 1/4", wgs, slow)
	}
}

func TestScratchSlowdownChargesTime(t *testing.T) {
	run := func(scratch int) float64 {
		d := testDevice()
		return d.Launch(4096, 256, scratch, func(g *Group) {
			g.VectorN(16, func(int) {})
		})
	}
	base := run(0)
	starved := run(40 << 10) // 1 WG/CU
	if starved <= base*3 {
		t.Fatalf("scratch starvation %v not ~4x base %v", starved, base)
	}
}

func TestFBarMembership(t *testing.T) {
	d := testDevice()
	d.Launch(128, 128, 0, func(g *Group) {
		fb := g.InitFBar()
		if fb.Count() != 128 {
			t.Fatalf("initial members = %d", fb.Count())
		}
		for l := 0; l < 64; l++ {
			fb.Leave(l)
		}
		fb.Leave(0) // double leave is a no-op
		if fb.Count() != 64 {
			t.Fatalf("members after leave = %d", fb.Count())
		}
		fb.Sync()
		m := fb.Members()
		if m[0] || !m[64] {
			t.Fatal("membership mask wrong")
		}
	})
}

func TestCountersAccumulate(t *testing.T) {
	d := testDevice()
	d.Launch(512, 256, 0, func(g *Group) {
		g.Vector(func(int) {})
		g.ChargeAtomics(2)
		g.Barrier()
		g.ChargeMessages(g.Size)
	})
	c := &d.Counters
	if c.Atomics.Load() != 4 || c.Barriers.Load() != 2 || c.Messages.Load() != 512 {
		t.Fatalf("counters: atomics=%d barriers=%d msgs=%d",
			c.Atomics.Load(), c.Barriers.Load(), c.Messages.Load())
	}
	if c.VectorOps.Load() == 0 || c.Cycles.Load() == 0 {
		t.Fatal("vector ops / cycles not counted")
	}
}

func TestVectorMaskedDivergenceCounting(t *testing.T) {
	d := testDevice()
	d.Launch(256, 256, 0, func(g *Group) {
		full := make([]bool, g.Size)
		for i := range full {
			full[i] = true
		}
		g.VectorMasked(1, full, func(int) {})
		partial := make([]bool, g.Size)
		partial[0] = true
		g.VectorMasked(1, partial, func(int) {})
	})
	if got := d.Counters.DivergedOps.Load(); got != 4 { // 4 WFs, partial op only
		t.Fatalf("DivergedOps = %d, want 4", got)
	}

	// VectorMasked and the body-less ChargeMasked each charge n
	// instructions on every WF and one divergence event per WF exactly
	// when the mask is partial, on a WG whose last WF is short.
	const size, n = 100, 4
	if size%d.Arch.WFWidth == 0 {
		t.Fatalf("WFWidth %d divides the test's WG size", d.Arch.WFWidth)
	}
	masks := []struct {
		name    string
		on      func(l int) bool
		partial bool
	}{
		{"full", func(int) bool { return true }, false},
		{"partial", func(l int) bool { return l%3 != 0 }, true},
		{"last-off", func(l int) bool { return l != size-1 }, true},
		{"inactive", func(int) bool { return false }, true},
	}
	for _, m := range masks {
		active := make([]bool, size)
		for l := range active {
			active[l] = m.on(l)
		}
		vm, cm := newGroup(d, size), newGroup(d, size)
		vm.reset(0, 0, size)
		cm.reset(0, 0, size)
		vm.VectorMasked(n, active, func(int) {})
		cm.ChargeMasked(n, active)
		wfs := int64(vm.WFs())
		want := wfCharges{cycles: n * wfs * d.Arch.CyclesVectorIssue, vecOps: n * wfs}
		if m.partial {
			want.divergedOps = wfs
		}
		if got := chargesOf(vm); got != want {
			t.Errorf("%s: VectorMasked charged %+v, want %+v", m.name, got, want)
		}
		if got := chargesOf(cm); got != want {
			t.Errorf("%s: ChargeMasked charged %+v, want %+v", m.name, got, want)
		}
	}
}

func TestCPUArchSingleLane(t *testing.T) {
	p := timemodel.Default()
	d := NewDevice(CPUArch(p))
	var n atomic.Int64
	d.Launch(100, 4, 0, func(g *Group) {
		if g.WFs() != g.Size { // width-1 wavefronts
			t.Errorf("WFs = %d, want %d", g.WFs(), g.Size)
		}
		g.Vector(func(int) { n.Add(1) })
	})
	if n.Load() != 100 {
		t.Fatalf("lanes run = %d", n.Load())
	}
}

func TestDivergenceModeString(t *testing.T) {
	if SoftwarePredication.String() != "sw-predication" ||
		WGReconvergence.String() != "wg-reconvergence" ||
		FineGrainBarrier.String() != "fbar" {
		t.Fatal("mode strings wrong")
	}
}

// goid is the calling goroutine's ID, read off its stack header.
func goid() string {
	var buf [64]byte
	f := strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))
	return f[1]
}

// TestOneWGLaunchRunsOnCaller: the goroutine that calls Launch is the
// launch's first worker, so a one-WG launch runs its kernel there and
// creates no goroutine (and, warm, no object).
func TestOneWGLaunchRunsOnCaller(t *testing.T) {
	d := testDevice()
	me, before := goid(), runtime.NumGoroutine()
	ran := 0
	kernel := func(g *Group) {
		ran++
		if id := goid(); id != me {
			t.Errorf("kernel ran on goroutine %s, Launch was called on %s", id, me)
		}
		// More, not different: an earlier test's workers may still be exiting.
		if n := runtime.NumGoroutine(); n > before {
			t.Errorf("%d goroutines during a one-WG launch, %d before it", n, before)
		}
	}
	d.Launch(200, 256, 0, kernel)
	if ran != 1 {
		t.Fatalf("kernel ran %d times", ran)
	}
	if n := testing.AllocsPerRun(100, func() { d.Launch(256, 256, 0, func(*Group) {}) }); n != 0 {
		t.Errorf("a warm one-WG launch allocates %v objects", n)
	}
}

// TestWarmLaunchAllocs: the workers a launch spawns, and the
// replacement a parked WG spawns, cost no object once the device is
// warm: a go statement on a method value would heap-allocate a closure
// per spawn.
func TestWarmLaunchAllocs(t *testing.T) {
	t.Run("64-WG", func(t *testing.T) {
		d := testDevice()
		launch := func() { d.Launch(64*256, 256, 0, func(*Group) {}) }
		if n := testing.AllocsPerRun(100, launch); n != 0 {
			t.Errorf("a warm 64-WG launch on %d workers allocates %v objects", d.Parallelism, n)
		}
	})
	t.Run("park", func(t *testing.T) {
		d := testDevice()
		d.Parallelism = 1
		var done atomic.Bool
		kernel := func(g *Group) { // WG 0 parks on WG 1, unscheduled
			if g.ID == 0 {
				g.Park(done.Load, nil)
			}
			done.Store(true)
		}
		launch := func() { done.Store(false); d.Launch(2*64, 64, 0, kernel) }
		if n := testing.AllocsPerRun(100, launch); n != 0 {
			t.Errorf("a warm launch whose WG parks allocates %v objects", n)
		}
	})
}

// TestParkFromCallerWorker: with one worker — the caller — a WG that
// parks on a later WG still gets a replacement worker, and so does a
// later WG parked on a later one still, whichever worker runs it. The
// launch returns only when every WG has.
func TestParkFromCallerWorker(t *testing.T) {
	const wgs = 4
	d := testDevice()
	d.Parallelism = 1
	var done [wgs]atomic.Bool
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		// WG i waits for WG i+1: only the last can finish unaided.
		d.Launch(wgs*64, 64, 0, func(g *Group) {
			if g.ID+1 < wgs {
				g.Park(done[g.ID+1].Load, nil)
			}
			done[g.ID].Store(true)
		})
	}()
	select {
	case <-finished:
	case <-time.After(10 * time.Second):
		t.Fatal("launch wedged: a parked work-group kept later ones from being scheduled")
	}
	for i := range done {
		if !done[i].Load() {
			t.Errorf("Launch returned before WG %d finished", i)
		}
	}
	if got := d.Counters.WGLaunches.Load(); got != wgs {
		t.Errorf("WGLaunches = %d, want %d", got, wgs)
	}
}

// TestKernelPanicReachesCaller: a kernel's panic, on whichever worker,
// ends the launch and is re-panicked with its value on the goroutine
// that called Launch, once every worker has returned; the device then
// launches as before.
func TestKernelPanicReachesCaller(t *testing.T) {
	type boom struct{ wg int }
	d := testDevice()
	for _, bad := range []int{0, 5, 39} {
		var running atomic.Int32
		func() {
			defer func() {
				r := recover()
				if b, ok := r.(*boom); !ok || b.wg != bad {
					t.Errorf("Launch panicked %v (%T), want the kernel's *boom{%d}", r, r, bad)
				}
				if n := running.Load(); n != 0 {
					t.Errorf("Launch unwound with %d work-groups still running", n)
				}
			}()
			d.Launch(40*64, 64, 0, func(g *Group) {
				running.Add(1)
				defer running.Add(-1)
				if g.ID == bad {
					panic(&boom{g.ID})
				}
				runtime.Gosched()
			})
			t.Errorf("Launch returned although WG %d panicked", bad)
		}()
	}
	var hits [1000]atomic.Int32
	d.Launch(len(hits), 256, 0, func(g *Group) {
		g.Vector(func(l int) { hits[g.GlobalID(l)].Add(1) })
	})
	for i := range hits {
		if hits[i].Load() != 1 {
			t.Fatalf("after a panicked launch, work-item %d executed %d times", i, hits[i].Load())
		}
	}
}
