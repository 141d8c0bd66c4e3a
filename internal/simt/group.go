package simt

import (
	"runtime"
	"slices"
)

// Group is one work-group executing a kernel. All lane-level state lives
// in slices indexed by lane ID; lanes advance in lockstep through the
// vector operations below. A Group is only ever used by the single
// goroutine executing its kernel. Groups belong to their device and
// outlive launches (Device.getGroup): a worker draws one, resets it
// for every WG it runs, and hands it back with its scratch.
type Group struct {
	dev *Device

	// ID is the work-group index within the launch grid.
	ID int
	// Global0 is the global work-item ID of lane 0.
	Global0 int
	// Size is the number of lanes in this WG (the last WG of a grid may
	// be partial).
	Size int

	cycles      int64
	vecOps      int64
	atomics     int64
	barriers    int64
	divergedOps int64
	messages    int64
	activeLanes int

	// scratch buffers reused across operations
	offs    []int
	wfDests []int     // WFAggregate's per-lane destinations
	wf      wfScratch // WFAggregate's per-wavefront grouping

	// Host is the host runtime's state for this group, kept with it
	// across launches; simt never reads it.
	Host any

	// ls is the launch this group is running under (nil for groups
	// constructed outside a launch, e.g. in tests); see Park.
	ls *launchState
}

// ActiveLaneCount returns the number of active lanes in the current
// PredicatedLoop iteration (the full WG size outside one). Kernels use
// it to charge per-lane memory-divergence costs.
func (g *Group) ActiveLaneCount() int {
	if g.activeLanes > 0 {
		return g.activeLanes
	}
	return g.Size
}

func newGroup(d *Device, wgSize int) *Group {
	return &Group{dev: d, offs: make([]int, wgSize)}
}

func (g *Group) reset(id, global0, size int) {
	g.ID = id
	g.Global0 = global0
	g.Size = size
	g.cycles = 0
	g.vecOps = 0
	g.atomics = 0
	g.barriers = 0
	g.divergedOps = 0
	g.messages = 0
	g.activeLanes = 0
}

func (g *Group) flushCounters() {
	c := &g.dev.Counters
	c.VectorOps.Add(g.vecOps)
	c.Atomics.Add(g.atomics)
	c.Barriers.Add(g.barriers)
	c.DivergedOps.Add(g.divergedOps)
	c.Messages.Add(g.messages)
}

// Device returns the device executing this group.
func (g *Group) Device() *Device { return g.dev }

// WFs returns the number of wavefronts in this group.
func (g *Group) WFs() int {
	w := g.dev.Arch.WFWidth
	return (g.Size + w - 1) / w
}

// GlobalID returns the global work-item ID of a lane.
func (g *Group) GlobalID(lane int) int { return g.Global0 + lane }

// chargeVector charges n vector instructions executed by all WFs of the
// group.
func (g *Group) chargeVector(n int64) {
	wfs := int64(g.WFs())
	g.vecOps += n * wfs
	g.cycles += n * wfs * g.dev.Arch.CyclesVectorIssue
}

// chargeVectorWFs charges n vector instructions executed by only wfs
// wavefronts (used by fbar-style execution where retired WFs idle).
func (g *Group) chargeVectorWFs(n, wfs int64) {
	g.vecOps += n * wfs
	g.cycles += n * wfs * g.dev.Arch.CyclesVectorIssue
}

// ChargeInstr charges n scalar-equivalent vector instructions to the
// group; kernels use it to account for per-lane arithmetic not captured
// by an explicit Vector call.
func (g *Group) ChargeInstr(n int) { g.chargeVector(int64(n)) }

// ChargeCycles charges raw cycles to the group (e.g. a synchronous wait
// on an external resource, as in the coalesced-APIs model's blocking
// sends).
func (g *Group) ChargeCycles(n int64) { g.cycles += n }

// NsToCycles converts nanoseconds to this device's cycles.
func (d *Device) NsToCycles(ns float64) int64 {
	return int64(ns * d.Arch.ClockHz / 1e9)
}

// ChargeMemDivergence charges the cost of a divergent memory operation
// touching lines cache lines (§2.2, Figure 2b).
func (g *Group) ChargeMemDivergence(lines int) {
	g.cycles += int64(lines) * g.dev.Arch.CyclesMemCacheLine
}

// ChargeMessages counts messages offloaded to the network interface.
func (g *Group) ChargeMessages(n int) { g.messages += int64(n) }

// Vector executes one data-parallel instruction: f runs for every lane
// in lockstep order. One vector instruction is charged per wavefront.
func (g *Group) Vector(f func(lane int)) {
	g.chargeVector(1)
	for l := 0; l < g.Size; l++ {
		f(l)
	}
}

// VectorN executes f for every lane, charging n vector instructions;
// use it when the lane body represents several machine instructions.
func (g *Group) VectorN(n int, f func(lane int)) {
	g.chargeVector(int64(n))
	for l := 0; l < g.Size; l++ {
		f(l)
	}
}

// VectorMasked executes f only for lanes with active[lane], charging the
// full SIMT width (inactive lanes occupy execution slots — branch
// divergence, §2.2). n is the instruction count of the body.
func (g *Group) VectorMasked(n int, active []bool, f func(lane int)) {
	g.ChargeMasked(n, active)
	for l, on := range active[:g.Size] {
		if on {
			f(l)
		}
	}
}

// ChargeMasked charges what VectorMasked(n, active, f) charges, without
// running a body: the runtime's own per-lane loops (the send paths) run
// as plain loops and charge through it.
func (g *Group) ChargeMasked(n int, active []bool) {
	g.chargeVector(int64(n))
	if slices.Contains(active[:g.Size], false) {
		g.divergedOps += int64(g.WFs())
	}
}

// Park blocks the calling work-group until cond reports true, while
// keeping the rest of the launch making progress: if the grid still has
// unscheduled work-groups, a replacement worker is spawned to run them,
// so a WG waiting on a condition satisfied by an earlier-indexed but
// not-yet-scheduled WG of the same grid (or by background message
// delivery) cannot wedge the launch, no matter how small the worker
// pool. The wait itself is cooperative (runtime.Gosched) and charges no
// cycles — wall-clock spin time is nondeterministic, so callers charge
// a fixed virtual-time cost instead (timemodel.Params.WaitUntilNs).
// progress, if non-nil, is invoked on every spin iteration so the
// caller can drive model-specific forward progress (e.g. flushing its
// own staged send buffers).
func (g *Group) Park(cond func() bool, progress func()) {
	if cond() {
		return
	}
	if ls := g.ls; ls != nil && int(ls.next.Load()) < ls.numWGs {
		ls.wg.Add(1)
		go ls.worker()
	}
	for !cond() {
		if progress != nil {
			progress()
		}
		runtime.Gosched()
	}
}

// Barrier synchronizes the group's wavefronts.
func (g *Group) Barrier() {
	g.barriers++
	g.cycles += g.dev.Arch.CyclesBarrier
}

// ChargeAtomics charges n global atomic operations without performing
// them (the actual atomic may live inside another package, e.g. the
// producer/consumer queue).
func (g *Group) ChargeAtomics(n int) {
	g.atomics += int64(n)
	g.cycles += int64(n) * g.dev.Arch.CyclesAtomic
}

// chargeWGOp charges a log-depth WG-level data-parallel operation
// (reduce, prefix-sum): one vector instruction per stage plus two
// barriers (Figure 11a).
func (g *Group) chargeWGOp() {
	stages := int64(1)
	for s := 1; s < g.Size; s <<= 1 {
		stages++
	}
	g.chargeVector(stages)
	g.Barrier()
	g.Barrier()
}

// ReduceMaxInt returns the maximum of vals[0:Size] via a WG-level
// reduction (§2.1).
func (g *Group) ReduceMaxInt(vals []int) int {
	g.chargeWGOp()
	m := vals[0]
	for l := 1; l < g.Size; l++ {
		if vals[l] > m {
			m = vals[l]
		}
	}
	return m
}

// PrefixSumMask computes, for every lane, the number of active lanes
// before it, and returns (offsets, total). Inactive lanes contribute the
// non-interfering value 0 (§5.2). offsets is valid until the next
// PrefixSumMask call on this group.
func (g *Group) PrefixSumMask(active []bool) (offsets []int, total int) {
	g.chargeWGOp()
	offs := g.offs[:g.Size]
	n := 0
	for l := 0; l < g.Size; l++ {
		offs[l] = n
		if active[l] {
			n++
		}
	}
	return offs, n
}

// Broadcast returns v (computed by one leader lane) to all lanes,
// charged as a single WG-level operation.
func (g *Group) Broadcast(v uint64) uint64 {
	g.chargeVector(1)
	g.Barrier()
	return v
}
