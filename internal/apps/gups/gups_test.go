package gups_test

import (
	"testing"

	"gravel/internal/apps/gups"
	"gravel/internal/core"
	"gravel/internal/simt"
)

func TestGUPSCorrect(t *testing.T) {
	for _, nodes := range []int{1, 2, 4} {
		cl := core.New(core.Config{Nodes: nodes})
		res := gups.Run(cl, gups.Config{TableSize: 1 << 14, UpdatesPerNode: 1 << 13, Seed: 42})
		cl.Close()
		if res.Sum != uint64(res.Updates) {
			t.Errorf("nodes=%d: sum=%d updates=%d", nodes, res.Sum, res.Updates)
		}
		if res.Ns <= 0 || res.GUPS <= 0 {
			t.Errorf("nodes=%d: no virtual time", nodes)
		}
	}
}

func TestGUPSMultiStep(t *testing.T) {
	cl := core.New(core.Config{Nodes: 2})
	defer cl.Close()
	res := gups.Run(cl, gups.Config{TableSize: 1 << 12, UpdatesPerNode: 1 << 12, Seed: 7, Steps: 4})
	if res.Sum != uint64(res.Updates) {
		t.Fatalf("sum=%d updates=%d", res.Sum, res.Updates)
	}
}

func TestGUPSRemoteFraction(t *testing.T) {
	// Random updates across 4 nodes must be ~75% remote (Table 5 logic).
	cl := core.New(core.Config{Nodes: 4})
	defer cl.Close()
	gups.Run(cl, gups.Config{TableSize: 1 << 14, UpdatesPerNode: 1 << 13, Seed: 1})
	f := cl.Stats().Queue.RemoteFrac()
	if f < 0.72 || f > 0.78 {
		t.Errorf("remote frac = %.3f, want ≈ 0.75", f)
	}
}

func TestGUPSModAllModes(t *testing.T) {
	cfg := gups.ModConfig{TableSize: 1 << 12, WIsPerNode: 1 << 12, Seed: 99}
	var sums []uint64
	for _, mode := range []simt.DivergenceMode{simt.SoftwarePredication, simt.WGReconvergence, simt.FineGrainBarrier} {
		cl := core.New(core.Config{Nodes: 2, DivMode: mode})
		res := gups.RunMod(cl, cfg)
		cl.Close()
		if res.Sum != uint64(res.Updates) {
			t.Errorf("mode=%v: sum=%d updates=%d", mode, res.Sum, res.Updates)
		}
		sums = append(sums, res.Sum)
	}
	if sums[0] != sums[1] || sums[1] != sums[2] {
		t.Errorf("divergence modes disagree: %v", sums)
	}
}
