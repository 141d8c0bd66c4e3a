package bench

import (
	"gravel/internal/apps/gups"
	"gravel/internal/core"
	"gravel/internal/simt"
)

// Sec82 reproduces §8.2 (diverged WG-level operation analysis): GUPS-mod
// — where each WI performs a random number of updates and 95 % perform
// none — under software predication, WG-granularity control flow
// (emulated in the paper with WF-sized WGs) and software fine-grain
// barriers. Reported as speedup over software predication.
func Sec82(scale float64) *Table {
	t := &Table{
		Title:  "§8.2: diverged WG-level operations on GUPS-mod (speedup vs software predication)",
		Header: []string{"mechanism", "virtual ms", "speedup"},
		Clocks: []Clock{Label, Modeled, Modeled},
	}
	s := func(base int) int {
		v := int(float64(base) * scale)
		if v < 1024 {
			v = 1024
		}
		return v
	}
	cfg := gups.ModConfig{TableSize: s(1 << 18), WIsPerNode: s(1 << 19), Seed: 1}
	modes := []struct {
		name string
		mode simt.DivergenceMode
	}{
		{"software predication", simt.SoftwarePredication},
		{"WG-granularity control flow", simt.WGReconvergence},
		{"fine-grain barrier (sw emulated)", simt.FineGrainBarrier},
	}
	var base float64
	for i, m := range modes {
		sys := core.New(core.Config{Nodes: 8, DivMode: m.mode})
		res := gups.RunMod(sys, cfg)
		sys.Close()
		if i == 0 {
			base = res.Ns
		}
		t.AddRow(m.name, F(res.Ns/1e6), F(base/res.Ns))
	}
	t.Note("paper: WG-granularity control flow 1.28x, software fbar 1.06x (a lower bound — hardware fbars would do better)")
	return t
}
