package bench

import (
	"gravel/internal/apps/gups"
	"gravel/internal/models"
	"gravel/internal/timemodel"
)

// Fig14QueueSizes are the per-node queue capacities swept in Figure 14.
var Fig14QueueSizes = []int{64, 512, 4096, 32768, 262144}

// Fig14 reproduces Figure 14 (aggregation sensitivity): GUPS throughput
// versus per-node queue size at 1/2/4/8 nodes. Larger queues amortize
// per-message wire overhead until ~32-64 kB, after which returns
// diminish.
func Fig14(scale float64, params *timemodel.Params) *Table {
	t := &Table{
		Title:  "Figure 14: GUPS vs per-node queue size (giga-updates/s of virtual time)",
		Header: append([]string{"queue size"}, nodeHeaders()...),
	}
	s := func(base int) int {
		v := int(float64(base) * scale)
		if v < 64 {
			v = 64
		}
		return v
	}
	cfg := gups.Config{TableSize: s(1 << 20), UpdatesPerNode: s(180_000), Seed: 13}
	for _, qb := range Fig14QueueSizes {
		row := []string{HumanBytes(int64(qb))}
		for _, n := range Fig12NodeCounts {
			p := cloneParams(params)
			p.PerNodeQueueBytes = qb
			sys := models.Gravel(n, p)
			res := gups.Run(sys, cfg)
			sys.Close()
			row = append(row, F(res.GUPS))
		}
		t.AddRow(row...)
	}
	t.Note("paper: multi-node rates improve with queue size and plateau past 32 kB; 64 kB chosen as the default")
	return t
}
