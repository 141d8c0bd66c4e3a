package bench

import (
	"slices"
	"strconv"

	"gravel/internal/models"
)

// Fig12NodeCounts are the cluster sizes of Figure 12.
var Fig12NodeCounts = []int{1, 2, 4, 8}

// Fig12Models are the send-path aggregation strategies the scalability
// sweep covers: the paper's system and the archive-aggregation rival.
var Fig12Models = []string{"gravel", "gravel-archive"}

// Fig12 reproduces Figure 12 (Gravel's scalability): speedup of each
// workload at 1/2/4/8 nodes relative to one node, plus the geometric
// mean, for both aggregation strategies. The paper reports a 5.3x
// average speedup at eight nodes.
func Fig12(scale float64) *Table {
	t := &Table{
		Title:  "Figure 12: Gravel's scalability (speedup vs 1 node)",
		Header: append([]string{"workload", "strategy"}, nodeHeaders()...),
		Clocks: append([]Clock{Label, Label}, slices.Repeat([]Clock{Modeled}, len(Fig12NodeCounts))...),
	}
	wls := Workloads(scale)
	for _, model := range Fig12Models {
		speedups := make(map[int][]float64) // nodes -> per-workload speedups
		for _, wl := range wls {
			base := 0.0
			row := []string{wl.Name, model}
			for _, n := range Fig12NodeCounts {
				sys := models.New(model, n, nil)
				ns := wl.Run(sys)
				sys.Close()
				if n == 1 {
					base = ns
				}
				sp := base / ns
				speedups[n] = append(speedups[n], sp)
				row = append(row, F(sp))
			}
			t.AddRow(row...)
		}
		geo := []string{"geo. mean", model}
		for _, n := range Fig12NodeCounts {
			geo = append(geo, F(GeoMean(speedups[n])))
		}
		t.AddRow(geo...)
	}
	t.Note("paper: geo. mean 5.3x at 8 nodes; GUPS/kmeans/mer near-linear, SSSP-1 worst")
	return t
}

func nodeHeaders() []string {
	h := make([]string, len(Fig12NodeCounts))
	for i, n := range Fig12NodeCounts {
		h[i] = strconv.Itoa(n) + " node"
		if n > 1 {
			h[i] += "s"
		}
	}
	return h
}
