// Package simt simulates the GPU execution model the paper targets
// (§2): work-items (WIs) grouped into 64-wide wavefronts (WFs) that
// execute in lockstep, wavefronts grouped into work-groups (WGs) that
// share a compute unit (CU), WG-level operations (barrier, reduce,
// prefix-sum, broadcast), branch divergence via active masks, and
// occupancy limited by scratchpad capacity.
//
// A work-group executes as one goroutine; lanes never run as independent
// goroutines, which both matches SIMT semantics (lanes advance in
// lockstep between explicit vector operations) and keeps the simulation
// fast. Every vector instruction, WG-level operation, atomic and barrier
// is charged to a cycle counter that package timemodel converts into
// virtual GPU time.
//
// The same machinery doubles as the CPU-execution substrate for the
// paper's Figure 13 baseline: a "CPU device" is simply an Arch with four
// single-lane compute units at 3.7 GHz.
package simt

import (
	"fmt"
	"sync"
	"sync/atomic"

	"gravel/internal/timemodel"
)

// Arch describes the data-parallel processor being simulated.
type Arch struct {
	// Name labels the architecture in stats output.
	Name string
	// CUs is the number of compute units (or CPU threads).
	CUs int
	// WFWidth is the lockstep width. 1 for a CPU.
	WFWidth int
	// ClockHz is the core clock.
	ClockHz float64
	// MaxWGsPerCU bounds occupancy.
	MaxWGsPerCU int
	// ScratchpadPerCU is LDS capacity in bytes (0 = no scratchpad limit).
	ScratchpadPerCU int
	// OccupancyForFullThroughput is the resident-WG count per CU below
	// which memory latency is no longer hidden.
	OccupancyForFullThroughput int
	// CyclesVectorIssue is the cycle cost of issuing one vector
	// instruction for one wavefront.
	CyclesVectorIssue int64
	// CyclesMemCacheLine is the extra cost of each additional cache line
	// touched by a divergent memory operation.
	CyclesMemCacheLine int64
	// CyclesAtomic is the cost of a global atomic RMW.
	CyclesAtomic int64
	// CyclesBarrier is the cost of a WG-level barrier.
	CyclesBarrier int64
	// PredOverheadInstr is the per-iteration instruction overhead of
	// software predication (§5.1).
	PredOverheadInstr int64
	// FBarOverheadInstr is the per-iteration instruction overhead of the
	// software-emulated fine-grain barrier (§8.2).
	FBarOverheadInstr int64
}

// GPUArch returns the paper's integrated GPU (Table 3) under the given
// cost parameters.
func GPUArch(p *timemodel.Params) Arch {
	return Arch{
		Name:                       "gpu",
		CUs:                        p.CUs,
		WFWidth:                    p.WFWidth,
		ClockHz:                    p.GPUClockHz,
		MaxWGsPerCU:                p.MaxWGsPerCU,
		ScratchpadPerCU:            p.ScratchpadPerCU,
		OccupancyForFullThroughput: p.OccupancyForFullThroughput,
		CyclesVectorIssue:          p.CyclesVectorIssue,
		CyclesMemCacheLine:         p.CyclesMemCacheLine,
		CyclesAtomic:               p.CyclesAtomic,
		CyclesBarrier:              p.CyclesBarrier,
		PredOverheadInstr:          14,
		FBarOverheadInstr:          18,
	}
}

// CPUArch returns the paper's host CPU (2 cores / 4 threads at 3.7 GHz)
// modeled as four single-lane compute units. It drives the Figure 13
// CPU-only distributed baseline.
func CPUArch(p *timemodel.Params) Arch {
	return Arch{
		Name:                       "cpu",
		CUs:                        p.CPUThreads,
		WFWidth:                    1,
		ClockHz:                    p.CPUClockHz,
		MaxWGsPerCU:                1,
		OccupancyForFullThroughput: 1,
		// A CPU core retires roughly one application "lane op" per
		// CPUOpNs; expressed in cycles of the 3.7 GHz clock.
		CyclesVectorIssue: int64(p.CPUOpNs * p.CPUClockHz / 1e9),
		// Memory stalls are already folded into CPUOpNs; charge only a
		// small extra per divergent line to avoid double counting.
		CyclesMemCacheLine: int64(5 * p.CPUClockHz / 1e9),
		CyclesAtomic:       int64(20 * p.CPUClockHz / 1e9),
		CyclesBarrier:      int64(50 * p.CPUClockHz / 1e9),
		PredOverheadInstr:  0,
		FBarOverheadInstr:  0,
	}
}

// DivergenceMode selects how WG-level operations behave in diverged
// control flow (§5, §8.2).
type DivergenceMode int

const (
	// SoftwarePredication keeps inactive WIs executing alongside their WG
	// and pays a per-iteration software overhead (current GPUs, §5.1).
	SoftwarePredication DivergenceMode = iota
	// WGReconvergence models a GPU that tracks control flow at WG
	// granularity (a WG-level reconvergence stack, §5.3): no software
	// overhead, but completely inactive WFs still execute.
	WGReconvergence
	// FineGrainBarrier models HSA-style fbars extended to arbitrary WI
	// sets (§5.3): retired WFs stop executing, but the (software
	// emulated) fbar operations themselves cost extra instructions.
	FineGrainBarrier
)

// String implements fmt.Stringer.
func (m DivergenceMode) String() string {
	switch m {
	case SoftwarePredication:
		return "sw-predication"
	case WGReconvergence:
		return "wg-reconvergence"
	case FineGrainBarrier:
		return "fbar"
	default:
		return fmt.Sprintf("DivergenceMode(%d)", int(m))
	}
}

// Counters aggregates dynamic execution statistics across all launches
// of a device.
type Counters struct {
	VectorOps   atomic.Int64 // vector instructions issued (per WF)
	Cycles      atomic.Int64 // total issue cycles across CUs
	Atomics     atomic.Int64 // global atomic operations
	Barriers    atomic.Int64 // WG barriers
	WGLaunches  atomic.Int64
	DivergedOps atomic.Int64 // vector ops issued with a partial mask
	Messages    atomic.Int64 // messages offloaded to the network queue
}

// Device is one simulated data-parallel processor.
type Device struct {
	Arch Arch
	// Mode selects diverged WG-level operation behaviour.
	Mode DivergenceMode
	// Clock, if non-nil, receives virtual GPU busy time at the end of
	// every Launch.
	Clock *timemodel.Clocks
	// Parallelism caps the number of WGs simulated concurrently. Zero
	// means min(GOMAXPROCS-ish default, resident WGs).
	Parallelism int

	Counters Counters

	// groups holds the idle Groups, scratch included: workers draw from
	// it and hand back, so a device allocates as many groups as it ever
	// had workers (Park's replacements included) in flight at once, not
	// one per worker per launch.
	groupMu sync.Mutex
	groups  []*Group

	// launch is the idle launch state, if any: a launch takes it and
	// hands it back, so a device allocates one (two launches of one
	// device overlap only in tests).
	launch atomic.Pointer[launchState]
}

// NewDevice returns a device with the given architecture using software
// predication.
func NewDevice(a Arch) *Device {
	return &Device{Arch: a, Parallelism: a.CUs}
}

// getGroup draws an idle group with room for wgSize lanes, or makes
// one. Its state is whatever its last work-group left: callers reset it
// for every WG they run.
func (d *Device) getGroup(wgSize int) *Group {
	d.groupMu.Lock()
	var g *Group
	if n := len(d.groups); n > 0 {
		g, d.groups = d.groups[n-1], d.groups[:n-1]
	}
	d.groupMu.Unlock()
	if g == nil || cap(g.offs) < wgSize {
		g = newGroup(d, wgSize)
	}
	return g
}

// putGroup hands a worker's group back when its launch has no
// work-group left for it.
func (d *Device) putGroup(g *Group) {
	g.ls = nil
	d.groupMu.Lock()
	d.groups = append(d.groups, g)
	d.groupMu.Unlock()
}

// Occupancy reports the number of resident WGs per CU for a kernel using
// scratchPerWG bytes of scratchpad, and the throughput slowdown factor
// (>=1) caused by insufficient latency hiding. This reproduces the
// paper's observation (§7.2) that scratchpad-hungry kernels (coalesced
// APIs, mer) lose concurrency.
func (d *Device) Occupancy(scratchPerWG int) (wgsPerCU int, slowdown float64) {
	wgsPerCU = d.Arch.MaxWGsPerCU
	if scratchPerWG > 0 && d.Arch.ScratchpadPerCU > 0 {
		byScratch := d.Arch.ScratchpadPerCU / scratchPerWG
		if byScratch < 1 {
			byScratch = 1
		}
		if byScratch < wgsPerCU {
			wgsPerCU = byScratch
		}
	}
	slowdown = 1
	if wgsPerCU < d.Arch.OccupancyForFullThroughput {
		slowdown = float64(d.Arch.OccupancyForFullThroughput) / float64(wgsPerCU)
	}
	return wgsPerCU, slowdown
}

// Launch executes a kernel over grid work-items in work-groups of wgSize
// lanes, using scratchPerWG bytes of scratchpad per WG. It blocks until
// every WG has finished, then charges the resulting virtual GPU time to
// d.Clock (if set) and returns it in nanoseconds.
//
// The kernel runs once per WG; lane-level work is expressed through the
// Group's vector operations.
func (d *Device) Launch(grid, wgSize, scratchPerWG int, kernel func(g *Group)) float64 {
	return d.LaunchAt(grid, 0, wgSize, scratchPerWG, kernel)
}

// launchState is the worker pool of one LaunchAt call: workers pull
// work-group indexes from next until the grid is exhausted. It is
// shared with the Groups it runs so Group.Park can spawn a replacement
// worker when a WG blocks on a condition that only not-yet-scheduled
// WGs (or background message delivery) can satisfy.
type launchState struct {
	d          *Device
	grid, base int
	wgSize     int
	numWGs     int
	kernel     func(g *Group)
	worker     func() // runWorker, bound once: go on a method value allocates a closure
	next       atomic.Int64
	wg         sync.WaitGroup // the spawned workers; the caller, the first worker, is not counted
	cycles     atomic.Int64

	// A kernel's panic, the launch's first only: LaunchAt re-panics it
	// on its caller once every worker has returned.
	panicked atomic.Pointer[any]
}

// runWorker is a spawned worker goroutine; ls.wg must have been
// incremented for it before it starts.
func (ls *launchState) runWorker() {
	defer ls.wg.Done()
	ls.run()
}

// run is one worker's WG pull loop. A kernel that panics ends its
// worker and keeps the rest of the grid from being scheduled.
func (ls *launchState) run() {
	g := ls.d.getGroup(ls.wgSize)
	g.ls = ls
	defer func() {
		ls.d.putGroup(g)
		if r := recover(); r != nil {
			first := r // r itself must not escape: it is declared on every call
			ls.panicked.CompareAndSwap(nil, &first)
			ls.next.Store(int64(ls.numWGs))
		}
	}()
	for {
		i := int(ls.next.Add(1)) - 1
		if i >= ls.numWGs {
			return
		}
		size := ls.wgSize
		if rem := ls.grid - i*ls.wgSize; rem < size {
			size = rem
		}
		g.reset(i, ls.base+i*ls.wgSize, size)
		ls.kernel(g)
		ls.cycles.Add(g.cycles)
		g.flushCounters()
	}
}

// LaunchAt is Launch with the global work-item IDs offset by base; the
// coprocessor model uses it to run a grid in chunks (§3.1). The calling
// goroutine is the launch's first worker, so a one-WG launch creates no
// goroutine. A kernel's panic (the first, if several work-groups panic)
// is re-panicked here once every worker has returned.
func (d *Device) LaunchAt(grid, base, wgSize, scratchPerWG int, kernel func(g *Group)) float64 {
	if wgSize <= 0 {
		panic("simt: non-positive work-group size")
	}
	if grid < 0 {
		panic("simt: negative grid size")
	}
	numWGs := (grid + wgSize - 1) / wgSize
	if numWGs == 0 {
		return 0
	}
	_, slowdown := d.Occupancy(scratchPerWG)

	workers := d.Parallelism
	if workers <= 0 {
		workers = d.Arch.CUs
	}
	if workers > numWGs {
		workers = numWGs
	}

	ls := d.launch.Swap(nil)
	if ls == nil {
		ls = &launchState{d: d}
		ls.worker = ls.runWorker
	}
	ls.grid, ls.base, ls.wgSize, ls.numWGs, ls.kernel = grid, base, wgSize, numWGs, kernel
	ls.next.Store(0)
	ls.cycles.Store(0)
	ls.wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go ls.worker()
	}
	ls.run()
	ls.wg.Wait()
	cycles, r := ls.cycles.Load(), ls.panicked.Swap(nil)
	ls.kernel = nil
	d.launch.Store(ls)
	if r != nil {
		panic(*r)
	}

	d.Counters.WGLaunches.Add(int64(numWGs))
	d.Counters.Cycles.Add(cycles)

	// Virtual busy time: total issue cycles spread across the CUs,
	// stretched by the scratchpad-occupancy slowdown. Grid-size
	// starvation is deliberately NOT modelled: the paper's inputs are
	// ~1000x larger than this reproduction's, so its GPU is never
	// grid-starved, and modelling starvation at reduced scale would
	// introduce an artifact the paper does not have (see DESIGN.md).
	ns := float64(cycles) / float64(d.Arch.CUs) / d.Arch.ClockHz * 1e9 * slowdown
	if d.Clock != nil {
		d.Clock.AddGPU(ns)
	}
	return ns
}
