package models

import (
	"gravel/internal/core"
	"gravel/internal/rt"
	"gravel/internal/simt"
	"gravel/internal/wire"
)

// scratchPerLane is the scratchpad the coalesced-APIs counting sort
// consumes per work-item (§3.3: a 256-WI WG uses 4 kB — 16 bytes/WI).
const scratchPerLane = 16

// Coalesced is the §3.3 model (GPUnet/GPUrdma style): work-groups
// counting-sort their messages by destination in scratchpad, then invoke
// one synchronous coalesced send per destination. Without GPU-wide
// aggregation, each send becomes its own (small) wire packet; with it
// (the "coalesced APIs + Gravel aggregation" bar of Figure 15), the
// per-WG lists are repacked into 64 kB per-node queues by the CPU.
type Coalesced struct {
	*core.Cluster
	off []core.Offloader // per hosted node
}

// coalesced puts the model over a cluster; gpuWide enables GPU-wide
// aggregation. Sends (per-WG packets, or repacked per-node queues with
// gpuWide) travel through the cluster's fabric, so the model runs
// in-process or multi-process alike; on a multi-process fabric only the
// hosted node gets aggregation buffers.
func coalesced(gpuWide bool) func(*core.Cluster) rt.System {
	return func(cl *core.Cluster) rt.System {
		p := cl.Params()
		co := &Coalesced{Cluster: cl, off: make([]core.Offloader, cl.Nodes())}
		for i := range co.off {
			if !cl.Fabric().Hosts(i) {
				continue
			}
			n := cl.Node(i)
			o := &coalSender{n: n, fab: cl.Fabric(), sendCycles: n.GPU.NsToCycles(p.AlphaNs / 2)}
			if gpuWide {
				o.sb = newSendBuffers(cl, n, p.PerNodeQueueBytes, true)
			}
			co.off[i] = o
		}
		return co
	}
}

// Step implements rt.System. Communication overlaps with computation
// (sends are initiated during the kernel), but each WG's sends are
// synchronous. The counting sort's scratchpad demand lowers occupancy.
func (co *Coalesced) Step(name string, grid []int, scratchPerWG int, k rt.Kernel) {
	scratch := scratchPerWG + scratchPerLane*co.WGSize()
	co.LaunchAll(grid, scratch, co.off, k)
	for _, o := range co.off {
		if o != nil {
			o.Progress()
		}
	}
	co.Quiesce()
	co.EndPhaseOverlapped(name)
}

// coalSender is the coalesced send path for one node: the work-group
// counting-sorts its messages by destination (Figure 4c lines 18-25)
// and issues one coalesced send per destination.
type coalSender struct {
	n   *core.Node
	fab core.Fabric
	// sendCycles is what a work-group blocks for per synchronous send
	// (the NIC round trip).
	sendCycles int64
	// sb is the node's staging queues with GPU-wide aggregation, nil
	// without.
	sb *sendBuffers
}

// Offload implements core.Offloader.
func (o *coalSender) Offload(g *simt.Group, b core.Batch) {
	g.ChargeMasked(1, b.Active) // each lane computes its destination
	if b.N == 0 {
		return
	}
	// Counting sort in scratchpad: a handful of WG-wide passes.
	g.ChargeInstr(6)
	g.Barrier()
	g.Barrier()

	// One sync_inc_list per destination (Figure 4c lines 27-29): SIMT
	// utilization degrades with the destination count.
	byDest(&b, o.fab.Nodes(), func(d int, lanes []int, _ []bool) {
		g.ChargeAtomics(1)
		g.ChargeInstr(2)
		g.ChargeMessages(len(lanes))
		if o.sb != nil {
			// Lists are handed to the CPU aggregator for repacking into
			// large per-node queues.
			o.sb.appendList(d, lanes, &b)
			return
		}
		// Synchronous send of this WG's list as its own packet — eager,
		// signals included; the WG blocks for the NIC round trip.
		pkt := wire.NewBuilder(d, len(lanes)*wire.MsgWireBytes)
		for _, l := range lanes {
			pkt.Append(b.CmdAt(l), b.A[l], b.V[l])
		}
		buf, msgs := pkt.Take()
		o.fab.Send(o.n.ID, d, buf, msgs)
		g.ChargeCycles(o.sendCycles)
	})
}

// Progress implements core.Offloader: flush the staging queues, if any.
func (o *coalSender) Progress() {
	if o.sb != nil {
		o.sb.flushAll()
	}
}

var _ rt.System = (*Coalesced)(nil)
