// Benchmarks: one per table and figure of the paper's evaluation. Each
// runs the corresponding experiment driver at a reduced scale and
// reports its headline metric; run cmd/gravel-bench for the full tables
// at default scale.
//
//	go test -bench=. -benchmem
package gravel_test

import (
	"strconv"
	"testing"

	"gravel/internal/apps/gups"
	"gravel/internal/apps/inedges"
	"gravel/internal/bench"
	"gravel/internal/core"
	"gravel/internal/graph"
	"gravel/internal/models"
	"gravel/internal/simt"
)

// benchScale keeps the full-figure drivers fast inside testing.B.
const benchScale = 0.2

// BenchmarkFig6QueueWGSize reproduces Figure 6: producer/consumer queue
// throughput vs work-group size for 32-byte messages.
func BenchmarkFig6QueueWGSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := bench.Fig6()
		if i == 0 {
			reportFirstLast(b, t, "wg1_GBs", "wg4_GBs")
		}
	}
}

// BenchmarkFig8QueueMsgSize reproduces Figure 8: queue bandwidth vs
// message size for Gravel's queue and the CPU-only baselines.
func BenchmarkFig8QueueMsgSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := bench.Fig8()
		_ = t
	}
}

// BenchmarkTable2LinesOfCode reproduces Table 2 (GUPS code size per
// model).
func BenchmarkTable2LinesOfCode(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Table2()
	}
}

// BenchmarkTable5NetworkStats reproduces Table 5 (remote-access
// frequency and average message size at eight nodes).
func BenchmarkTable5NetworkStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Table5(benchScale, nil)
	}
}

// BenchmarkFig12Scalability reproduces Figure 12 (Gravel's speedup at
// 1/2/4/8 nodes); the geo-mean 8-node speedup is the headline metric
// (the paper reports 5.3x).
func BenchmarkFig12Scalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := bench.Fig12(benchScale, nil)
		if i == 0 {
			last := t.Rows[len(t.Rows)-1]
			if v, err := strconv.ParseFloat(last[len(last)-1], 64); err == nil {
				b.ReportMetric(v, "geomean8x")
			}
		}
	}
}

// BenchmarkFig13VsCPU reproduces Figure 13 (Gravel vs CPU-only
// distributed baseline).
func BenchmarkFig13VsCPU(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Fig13(benchScale, nil)
	}
}

// BenchmarkFig14QueueSizeSweep reproduces Figure 14 (GUPS vs per-node
// queue size).
func BenchmarkFig14QueueSizeSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Fig14(benchScale, nil)
	}
}

// BenchmarkFig15StyleComparison reproduces Figure 15 (all six GPU
// networking models on every workload at eight nodes).
func BenchmarkFig15StyleComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Fig15(benchScale, nil)
	}
}

// BenchmarkSec82DivergedOps reproduces §8.2 (software predication vs
// WG-granularity control flow vs fine-grain barriers on GUPS-mod).
func BenchmarkSec82DivergedOps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Sec82(benchScale, nil)
	}
}

// BenchmarkAblations runs the design-choice ablations (offload
// granularity, local-atomic routing, slot padding).
func BenchmarkAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Ablations(benchScale, nil)
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

// reportFirstLast parses the first and last data rows' second column as
// metrics.
func reportFirstLast(b *testing.B, t *bench.Table, firstName, lastName string) {
	if len(t.Rows) == 0 {
		return
	}
	if v, err := strconv.ParseFloat(t.Rows[0][1], 64); err == nil {
		b.ReportMetric(v, firstName)
	}
	if v, err := strconv.ParseFloat(t.Rows[len(t.Rows)-2][1], 64); err == nil {
		b.ReportMetric(v, lastName)
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
