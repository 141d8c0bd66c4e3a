// Benchmarks: BenchmarkExperiments runs every experiment of the
// paper's evaluation (bench.Experiments) at bench.GoldenScale, one
// sub-benchmark each; run cmd/gravel-bench for the full tables at
// default scale. The rest time the runtime itself.
//
//	go test -bench=. -benchmem
//	go test -bench='Experiments/fig6' -benchtime=1x -run=NONE .
package gravel_test

import (
	"testing"

	"gravel/internal/apps/gups"
	"gravel/internal/apps/inedges"
	"gravel/internal/bench"
	"gravel/internal/core"
	"gravel/internal/graph"
	"gravel/internal/models"
	"gravel/internal/simt"
)

// BenchmarkExperiments times each table and figure driver end to end.
func BenchmarkExperiments(b *testing.B) {
	for _, e := range bench.Experiments {
		b.Run(e.Name, func(b *testing.B) {
			for b.Loop() {
				e.Run(bench.GoldenScale, 0)
			}
		})
	}
}

// BenchmarkGravelGUPS benchmarks the core runtime end to end: virtual
// GUPS at 8 nodes, plus the wall-clock cost of simulating it.
func BenchmarkGravelGUPS(b *testing.B) {
	cfg := gups.Config{TableSize: 1 << 18, UpdatesPerNode: 1 << 15, Seed: 1}
	for i := 0; i < b.N; i++ {
		sys := models.Gravel(8, nil)
		res := gups.Run(sys, cfg)
		sys.Close()
		if i == 0 {
			b.ReportMetric(res.GUPS, "virtGUPS")
		}
	}
}

// BenchmarkOffloadModes compares the per-update simulation cost of the
// three diverged WG-level operation modes (§8.2) head to head.
func BenchmarkOffloadModes(b *testing.B) {
	for _, mode := range []simt.DivergenceMode{
		simt.SoftwarePredication, simt.WGReconvergence, simt.FineGrainBarrier,
	} {
		b.Run(mode.String(), func(b *testing.B) {
			cfg := gups.ModConfig{TableSize: 1 << 14, WIsPerNode: 1 << 14, Seed: 1}
			var virt float64
			for i := 0; i < b.N; i++ {
				cl := core.New(core.Config{Nodes: 2, DivMode: mode})
				res := gups.RunMod(cl, cfg)
				cl.Close()
				virt = res.Ns
			}
			b.ReportMetric(virt/1e6, "virt_ms")
		})
	}
}

// BenchmarkSec5InEdgesStyles runs the paper's §5 count-in-edges example
// under each diverged-control-flow style, reporting the virtual time.
func BenchmarkSec5InEdgesStyles(b *testing.B) {
	g := graph.Bubbles(8000, 1)
	for _, style := range []inedges.Style{inedges.StylePredicated, inedges.StyleWGControlFlow, inedges.StyleFBar} {
		b.Run(style.String(), func(b *testing.B) {
			var virt float64
			for i := 0; i < b.N; i++ {
				cl := core.New(core.Config{Nodes: 4, DivMode: style.Mode()})
				res, _ := inedges.Run(cl, g, style)
				cl.Close()
				virt = res.Ns
			}
			b.ReportMetric(virt/1e6, "virt_ms")
		})
	}
}
