// Package timemodel defines the virtual-time cost model used to convert
// event counts produced by the functional simulation into the timings the
// paper reports.
//
// The model is LogGP-flavored: every network message is charged a fixed
// per-message overhead (Alpha) plus a size-proportional term (size/Beta),
// and every on-node activity (GPU cycles, aggregator repacking, network
// thread message resolution) is charged to a per-node clock. Phase times
// are composed from those clocks according to each networking model's
// overlap semantics (see package core and package models).
//
// Parameters are calibrated against Table 3 of the paper (AMD A10-7850K
// APU: 8 CUs at 720 MHz, 2 CPU cores / 4 threads at 3.7 GHz, 56 Gb/s
// InfiniBand) so that the *shape* of every figure is reproduced.
// Absolute numbers are explicitly not a goal.
package timemodel

// Params holds every knob of the virtual-time cost model. The zero value
// is not useful; start from Default.
type Params struct {
	// --- GPU (Table 3: 8 CUs, 720 MHz, 64-wide wavefronts) ---

	// GPUClockHz is the GPU core clock.
	GPUClockHz float64
	// CUs is the number of compute units.
	CUs int
	// WFWidth is the number of lanes in a wavefront.
	WFWidth int
	// MaxWGsPerCU bounds occupancy when scratchpad is not the limit.
	MaxWGsPerCU int
	// ScratchpadPerCU is the scratchpad (LDS) capacity per CU in bytes.
	ScratchpadPerCU int
	// CyclesVectorIssue is the cost, in cycles, of issuing one vector
	// instruction for one wavefront (includes average memory latency as
	// hidden by multithreading at full occupancy).
	CyclesVectorIssue int64
	// CyclesMemCacheLine is the additional cost of a divergent memory
	// access (one extra cache line) in cycles.
	CyclesMemCacheLine int64
	// CyclesAtomic is the cost of one global atomic RMW issued by a lane.
	CyclesAtomic int64
	// CyclesBarrier is the cost of a WG-level barrier.
	CyclesBarrier int64
	// OccupancyForFullThroughput is the number of resident WGs per CU
	// needed to fully hide memory latency; below it, GPU time scales by
	// needed/actual.
	OccupancyForFullThroughput int

	// --- CPU (Table 3: 2 cores / 4 threads, 3.7 GHz) ---

	// CPUClockHz is the CPU core clock.
	CPUClockHz float64
	// CPUThreads is the number of hardware threads per node.
	CPUThreads int
	// CPUOpNs is the average cost of one work-item's worth of application
	// work when executed by a CPU thread (Fig. 13 CPU-only baseline).
	CPUOpNs float64

	// --- Aggregator (one CPU thread, §6) ---

	// AggPerMsgNs is the cost to repack one message from the
	// producer/consumer queue into a per-node queue.
	AggPerMsgNs float64
	// AggPerSlotNs is the fixed cost to acquire and release one
	// producer/consumer queue slot.
	AggPerSlotNs float64
	// AggPerFlushNs is the fixed cost to hand one per-node queue to the
	// NIC (MPI_Isend bookkeeping).
	AggPerFlushNs float64

	// --- Network thread (one CPU thread, §6) ---

	// NetThreadPerMsgNs is the cost to decode one received message and
	// resolve it as a local memory operation.
	NetThreadPerMsgNs float64
	// NetThreadPerByteNs is the size-proportional receive cost.
	NetThreadPerByteNs float64
	// NetThreadPerPacketNs is the per-received-queue dispatch cost
	// (MPI receive completion and progress).
	NetThreadPerPacketNs float64
	// NetThreadAMExtraNs is the additional cost of dispatching an active
	// message handler.
	NetThreadAMExtraNs float64
	// NetThreadSignalExtraNs is the additional cost of resolving the
	// signal-word increment of a PUT_SIGNAL (the data store is already
	// covered by NetThreadPerMsgNs).
	NetThreadSignalExtraNs float64

	// --- Device waits (PGAS verbs) ---

	// WaitUntilNs is the fixed virtual-time cost charged for one
	// WaitUntil verb call. The wall-clock time a waiting work-group
	// spins is scheduler-dependent and therefore nondeterministic, so
	// the model charges this deterministic constant instead — the cost
	// of issuing the monitored load loop, not of the latency being
	// waited out (which other clocks already account for).
	WaitUntilNs float64

	// --- Wire (Table 3: 56 Gb/s InfiniBand) ---

	// AlphaNs is the per-message wire overhead (NIC + MPI + propagation).
	AlphaNs float64
	// BetaBytesPerNs is the link bandwidth in bytes per nanosecond
	// (7 bytes/ns = 56 Gb/s).
	BetaBytesPerNs float64

	// --- Runtime fixed costs ---

	// KernelLaunchNs is the per-kernel-launch overhead.
	KernelLaunchNs float64
	// BarrierNs is the cost of one cluster-wide barrier (quiescence
	// round), charged once per superstep per round.
	BarrierNs float64

	// --- Gravel configuration (Table 3 bottom row) ---
	// Its one aggregator thread and 125 µs timeout are not knobs (agg).

	// PerNodeQueueBytes is the capacity of one per-node (per-destination)
	// aggregation queue.
	PerNodeQueueBytes int
	// QueuesPerDest is how many per-node queues are allocated per
	// destination (over-allocation hides latency).
	QueuesPerDest int
	// PCQBytes is the producer/consumer queue capacity.
	PCQBytes int
}

// Default returns parameters calibrated to the paper's Table 3 node
// architecture. See EXPERIMENTS.md for the calibration procedure.
func Default() *Params {
	return &Params{
		GPUClockHz:                 720e6,
		CUs:                        8,
		WFWidth:                    64,
		MaxWGsPerCU:                8,
		ScratchpadPerCU:            64 << 10,
		CyclesVectorIssue:          4,
		CyclesMemCacheLine:         24,
		CyclesAtomic:               200,
		CyclesBarrier:              32,
		OccupancyForFullThroughput: 4,

		CPUClockHz: 3.7e9,
		CPUThreads: 4,
		CPUOpNs:    25.0,

		AggPerMsgNs:   8,
		AggPerSlotNs:  80,
		AggPerFlushNs: 400,

		NetThreadPerMsgNs:    22,
		NetThreadPerByteNs:   0.04,
		NetThreadPerPacketNs: 2000,
		NetThreadAMExtraNs:   10,

		NetThreadSignalExtraNs: 6,
		WaitUntilNs:            120,

		AlphaNs:        3000,
		BetaBytesPerNs: 7.0,

		KernelLaunchNs: 8000,
		BarrierNs:      4000,

		PerNodeQueueBytes: 64 << 10,
		QueuesPerDest:     3,
		PCQBytes:          1 << 20,
	}
}

// WireNs returns the wire time charged for one packet of the given size.
func (p *Params) WireNs(bytes int) float64 {
	return p.AlphaNs + float64(bytes)/p.BetaBytesPerNs
}

// Occupancy returns the number of work-groups resident per CU given the
// per-WG scratchpad demand, and the resulting GPU slowdown factor
// (>= 1) from reduced latency hiding.
func (p *Params) Occupancy(scratchPerWG int) (wgsPerCU int, slowdown float64) {
	wgsPerCU = p.MaxWGsPerCU
	if scratchPerWG > 0 {
		byScratch := p.ScratchpadPerCU / scratchPerWG
		if byScratch < 1 {
			byScratch = 1
		}
		if byScratch < wgsPerCU {
			wgsPerCU = byScratch
		}
	}
	slowdown = 1
	if wgsPerCU < p.OccupancyForFullThroughput {
		slowdown = float64(p.OccupancyForFullThroughput) / float64(wgsPerCU)
	}
	return wgsPerCU, slowdown
}
