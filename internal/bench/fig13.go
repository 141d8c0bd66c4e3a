package bench

import (
	"gravel/internal/models"
)

// Fig13 reproduces Figure 13 (Gravel vs CPU-based distributed systems):
// GUPS, PR-1, PR-2 and mer on 1 and 8 CPU-only nodes (Grappa/UPC-style)
// and on 1 and 8 Gravel nodes, normalized to one CPU node. The archive
// aggregation strategy rides along as two extra columns, so the
// CPU-baseline comparison covers both send paths.
func Fig13(scale float64) *Table {
	configs := []struct {
		name  string
		nodes int
	}{
		{"cpu-only", 1}, {"cpu-only", 8}, {"gravel", 1}, {"gravel", 8},
		{"gravel-archive", 1}, {"gravel-archive", 8},
	}
	t := &Table{
		Title: "Figure 13: Gravel vs CPU-based distributed systems (speedup vs 1 CPU node)",
		Header: []string{"workload", "1 CPU node", "8 CPU nodes", "1 Gravel node", "8 Gravel nodes",
			"1 archive node", "8 archive nodes"},
		Clocks: []Clock{Label, Modeled, Modeled, Modeled, Modeled, Modeled, Modeled},
	}
	for _, wl := range Fig13Workloads(scale) {
		times := make([]float64, len(configs))
		for i, cfg := range configs {
			sys := models.New(cfg.name, cfg.nodes, nil)
			times[i] = wl.Run(sys)
			sys.Close()
		}
		base := times[0]
		row := []string{wl.Name}
		for _, tm := range times {
			row = append(row, F(base/tm))
		}
		t.AddRow(row...)
	}
	t.Note("paper: Gravel is significantly faster even on one node (the GPU fits the data-parallel behaviour), and keeps the advantage at 8 nodes")
	return t
}
