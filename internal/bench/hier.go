package bench

import (
	"fmt"

	"gravel/internal/apps/gups"
	"gravel/internal/core"
	"gravel/internal/timemodel"
)

// Hier projects the paper's §10 scaling discussion: beyond the paper's
// eight nodes, flat aggregation keeps one per-node queue per
// destination, so per-queue fill rate — and therefore wire message size
// — shrinks as the cluster grows; a two-level hierarchy (16-node groups
// in the paper's example) aggregates across groups and keeps messages
// large at the price of one indirect hop.
//
// The experiment runs GUPS weak-scaled (fixed updates per node, split
// over several kernel launches so per-phase traffic per destination is
// realistic) on 8-128 nodes, flat vs hierarchical.
func Hier(scale float64, params *timemodel.Params) *Table {
	t := &Table{
		Title: "§10 projection: flat vs two-level hierarchical aggregation (GUPS, weak scaling)",
		Header: []string{"nodes", "flat GUPS", "flat avg pkt (B)", "hier GUPS",
			"hier avg pkt (B)", "hier/flat"},
	}
	s := func(base int) int {
		v := int(float64(base) * scale)
		if v < 64 {
			v = 64
		}
		return v
	}
	perNode := s(120_000)
	for _, nodes := range []int{8, 16, 32, 64, 128} {
		group := 4
		for group*group < nodes {
			group++
		}
		cfg := gups.Config{TableSize: s(1<<20) * nodes / 8, UpdatesPerNode: perNode, Seed: 13, Steps: 64}

		flat := core.New(core.Config{Nodes: nodes, Params: cloneParams(params)})
		rf := gups.Run(flat, cfg)
		fPkt := flat.Stats().Transport.AvgPacketBytes
		flat.Close()

		hier := core.New(core.Config{Nodes: nodes, Params: cloneParams(params), GroupSize: group})
		rh := gups.Run(hier, cfg)
		hPkt := hier.Stats().Transport.AvgPacketBytes
		if rh.Sum != uint64(rh.Updates) || rf.Sum != uint64(rf.Updates) {
			panic("hier: functional mismatch")
		}
		hier.Close()

		t.AddRow(fmt.Sprintf("%d (groups of %d)", nodes, group),
			F(rf.GUPS), F(fPkt), F(rh.GUPS), F(hPkt), F(rh.GUPS/rf.GUPS))
	}
	t.Note("paper §10: two 16-node aggregation levels would support 256 nodes with one indirect hop")
	t.Note("weak scaling: %d updates per node in 64 kernel launches (thin per-destination traffic, the §10 regime)", perNode)
	return t
}
