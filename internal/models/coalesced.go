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
// one synchronous coalesced send per destination. Over a core.SendOwn
// cluster each send becomes its own (small) wire packet. Over a
// core.SendQueue cluster (the "coalesced APIs + Gravel aggregation" bar
// of Figure 15) each per-WG list fills one slot of the node's
// producer/consumer queue instead, and Gravel's CPU aggregator repacks
// it into 64 kB per-node queues.
type Coalesced struct {
	*core.Cluster
	off []core.Offloader // per hosted node
}

// coalesced puts the model over a cluster. Sends (per-WG packets, or
// repacked per-node queues) travel through the cluster's fabric, so the
// model runs in-process or multi-process alike; on a multi-process
// fabric only the hosted node gets a send path.
func coalesced(cl *core.Cluster) rt.System {
	p := cl.Params()
	co := &Coalesced{Cluster: cl, off: make([]core.Offloader, cl.Nodes())}
	for i := range co.off {
		if !cl.Fabric().Hosts(i) {
			continue
		}
		n := cl.Node(i)
		co.off[i] = &coalSender{n: n, fab: cl.Fabric(), sendCycles: n.GPU.NsToCycles(p.AlphaNs / 2)}
	}
	return co
}

// Step implements rt.System. Communication overlaps with computation
// (sends are initiated during the kernel), but each WG's sends are
// synchronous. The counting sort's scratchpad demand lowers occupancy.
func (co *Coalesced) Step(name string, grid []int, scratchPerWG int, k rt.Kernel) {
	scratch := scratchPerWG + scratchPerLane*co.WGSize()
	co.LaunchAll(grid, scratch, co.off, k)
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
	byDest(&b, o.fab.Nodes(), func(d int, lanes []int, mask []bool) {
		g.ChargeAtomics(1)
		g.ChargeInstr(2)
		g.ChargeMessages(len(lanes))
		if o.n.PCQ != nil {
			// GPU-wide aggregation: lists are handed to the CPU
			// aggregator for repacking into large per-node queues.
			list := b
			list.Active = mask
			o.n.Enqueue(&list, len(lanes))
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

// Progress implements core.Offloader: a list is sent, or the node's
// aggregator drains it, without the work-group.
func (*coalSender) Progress() {}

var _ rt.System = (*Coalesced)(nil)
