package bench

import (
	"gravel/internal/models"
	"gravel/internal/timemodel"
)

// Fig15 reproduces Figure 15 (style comparison at eight nodes): every
// workload under every GPU networking model, reported as speedup over
// the plain coprocessor model, plus the geometric mean.
func Fig15(scale float64, params *timemodel.Params) *Table {
	names := models.Names()
	t := &Table{
		Title:  "Figure 15: style comparison at eight nodes (speedup vs coprocessor)",
		Header: append([]string{"workload"}, names...),
	}
	per := make(map[string][]float64)
	for _, wl := range Workloads(scale) {
		times := make(map[string]float64, len(names))
		for _, name := range names {
			sys := models.New(name, 8, cloneParams(params))
			times[name] = wl.Run(sys)
			sys.Close()
		}
		base := times["coprocessor"]
		row := []string{wl.Name}
		for _, name := range names {
			sp := base / times[name]
			per[name] = append(per[name], sp)
			row = append(row, F(sp))
		}
		t.AddRow(row...)
	}
	geo := []string{"geo. mean"}
	for _, name := range names {
		geo = append(geo, F(GeoMean(per[name])))
	}
	t.AddRow(geo...)
	t.Note("paper: Gravel is equal-or-best everywhere; msg-per-lane collapses on GUPS (~0.01); coalesced+aggregation nearly matches Gravel")
	return t
}
