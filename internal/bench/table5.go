package bench

import (
	"fmt"

	"gravel/internal/models"
)

// Table5 reproduces Table 5 (network statistics for Gravel at eight
// nodes): remote-access frequency and average wire message size per
// workload, plus the §8.1 aggregator-poll observation.
func Table5(scale float64) *Table {
	t := &Table{
		Title:  "Table 5: network statistics for Gravel at eight nodes",
		Header: []string{"workload", "remote freq", "avg msg size (B)", "agg busy"},
		Clocks: []Clock{Label, Count, Count, Modeled},
	}
	for _, wl := range Workloads(scale) {
		sys := models.Gravel(8, nil)
		wl.Run(sys)
		st := sys.Stats()
		sys.Close()
		t.AddRow(wl.Name,
			fmt.Sprintf("%.1f%%", 100*st.Queue.RemoteFrac()),
			F(st.Transport.AvgPacketBytes),
			fmt.Sprintf("%.0f%%", 100*st.Agg.BusyFrac))
	}
	t.Note("paper remote freq: GUPS/kmeans/mer 87.5%%, PR-1 37.7%%, PR-2 16.5%%, SSSP-1 30.0%%, SSSP-2 16.2%%, color-1 36.7%%, color-2 16.5%%")
	t.Note("paper avg msg size: GUPS 65440, PR-1 64611, PR-2 15700, SSSP-1 1563, SSSP-2 57916, color-1 27258, color-2 9463, kmeans 5656, mer 64822")
	t.Note("§8.1: the aggregator CPU spends ~65%% of its time polling at eight nodes (busy ≈ 35%%)")
	return t
}
