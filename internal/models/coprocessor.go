package models

import (
	"gravel/internal/core"
	"gravel/internal/rt"
	"gravel/internal/simt"
	"gravel/internal/wire"
)

// Coprocessor is the §3.1 model: the GPU inserts messages into per-node
// queues in memory; the host exchanges the queues between kernel chunks.
// Nothing overlaps — phase time composes sequentially (Figure 4a).
//
// The number of concurrently executing work-items is limited so a
// per-node queue cannot overflow even if every WI targets the same
// destination; this is the chunking of Figure 4a lines 6-7 and is what
// starves the GPU when queues are small (§7.2). Applications whose WIs
// send many messages (PR, color) overflow mid-chunk anyway and pay a
// synchronous flush stall.
type Coprocessor struct {
	*core.Cluster
	queueBytes int
	sb         []*sendBuffers
}

// coprocessor puts the model over a cluster, with per-node queues of
// queueBytes each; 0 means Gravel's 64 kB (the second bar of Figure 15
// gives them 1 MB). The per-node queues are filled by the GPU and
// exchanged through the cluster's fabric, so the model runs over
// in-process channels or real sockets alike; on a multi-process fabric
// only the hosted node gets queues, as the hosted node alone has a
// device.
func coprocessor(queueBytes int) func(*core.Cluster) rt.System {
	return func(cl *core.Cluster) rt.System {
		qb := queueBytes
		if qb == 0 {
			qb = cl.Params().PerNodeQueueBytes
		}
		cp := &Coprocessor{Cluster: cl, queueBytes: qb, sb: make([]*sendBuffers, cl.Nodes())}
		for i := range cp.sb {
			if cl.Fabric().Hosts(i) {
				cp.sb[i] = newSendBuffers(cl, cl.Node(i), qb)
			}
		}
		return cp
	}
}

// Step implements rt.System with chunked bulk-synchronous execution.
//
// The initial chunk assumes one message per WI (the GUPS-style worst
// case of Figure 4a). Kernels whose WIs send many messages (PR, color)
// overflow a per-node queue mid-chunk; the host reacts the way the
// paper's programmer does — by shrinking the chunk — which starves the
// GPU further. Chunks smaller than the device's full-throughput width
// additionally pay an occupancy penalty (the §7.2 "small per-node
// queues limit the amount of parallelism on the GPU").
func (cp *Coprocessor) Step(name string, grid []int, scratchPerWG int, k rt.Kernel) {
	wgSize := cp.WGSize()
	p := cp.Params()
	maxChunk := cp.queueBytes / wire.MsgWireBytes / wgSize * wgSize
	if maxChunk < wgSize {
		maxChunk = wgSize
	}
	// Full-throughput width: enough WIs to populate every CU at the
	// occupancy that hides memory latency.
	fullWIs := p.CUs * p.OccupancyForFullThroughput * wgSize

	cp.RunNodes(grid, func(n *core.Node, g int) {
		sb := cp.sb[n.ID]
		chunk := maxChunk
		for start := 0; start < g; {
			sz := g - start
			if sz > chunk {
				sz = chunk
			}
			n.Clocks.AddHost(p.KernelLaunchNs)
			ns := n.GPU.LaunchAt(sz, start, wgSize, scratchPerWG, n.Kernel(copQueues{sb}, k))
			// GPU starvation: a chunk below the full-throughput
			// width leaves the device idle while queues round-trip.
			if sz < fullWIs {
				factor := float64(fullWIs) / float64(sz)
				if factor > 16 {
					factor = 16
				}
				n.Clocks.AddGPU(ns * (factor - 1))
			}
			// Synchronous exchange at the chunk boundary.
			sb.flushAll()
			n.Clocks.AddHost(p.AlphaNs) // MPI exchange round trip
			start += sz
			// React to mid-chunk overflows: the safe chunk is
			// smaller than assumed.
			if sb.takeOverflows() > 0 && chunk > wgSize {
				chunk = chunk / 2 / wgSize * wgSize
				if chunk < wgSize {
					chunk = wgSize
				}
			}
		}
	})
	cp.Quiesce()
	cp.EndPhaseSequential(name)
}

// copQueues is the coprocessor send path (§3.1): the work-group fills
// the node's GPU-side per-node queues directly, synchronizing once per
// distinct destination, which costs divergence.
type copQueues struct{ *sendBuffers }

// Offload implements core.Offloader.
func (q copQueues) Offload(g *simt.Group, b core.Batch) {
	g.ChargeMasked(1, b.Active) // each lane computes its queue
	if b.N == 0 {
		return
	}
	// One WG-level reservation per destination present in the WG
	// (Figure 4a lines 2-4): branch and memory divergence.
	byDest(&b, len(q.b), func(d int, lanes []int, mask []bool) {
		g.PrefixSumMask(mask) // WG-level reserve for this queue
		g.ChargeAtomics(1)
		g.ChargeMasked(wire.SlotRows, mask)
		g.ChargeMemDivergence(len(lanes)) // different queue per destination
		g.ChargeMessages(len(lanes))
		q.appendList(d, lanes, &b)
	})
}

// Progress implements core.Offloader: flush the staged queues, so
// messages the waiter's chunk already produced keep moving while it
// blocks.
func (q copQueues) Progress() { q.flushAll() }

var _ rt.System = (*Coprocessor)(nil)
