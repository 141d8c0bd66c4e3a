package bench

import (
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"gravel/internal/apps/gups"
	"gravel/internal/core"
	"gravel/internal/simt"
)

// built holds each experiment's table at GoldenScale, run at most once
// per test binary: TestModeledGolden and the shape tests read the same
// tables, and a test that needs none of an experiment never runs it.
var built = func() map[string]*builtTable {
	m := make(map[string]*builtTable, len(Experiments))
	for _, e := range Experiments {
		m[e.Name] = &builtTable{exp: e}
	}
	return m
}()

type builtTable struct {
	exp   Experiment
	once  sync.Once
	table *Table
}

// table returns experiment name's table at GoldenScale, building it on
// first use.
func table(t *testing.T, name string) *Table {
	t.Helper()
	b := built[name]
	if b == nil {
		t.Fatalf("no experiment %q", name)
	}
	b.once.Do(func() {
		start := time.Now()
		b.table = b.exp.Run(GoldenScale, 0)
		t.Logf("built %s at scale %g in %v", name, GoldenScale, time.Since(start).Round(time.Millisecond))
	})
	return b.table
}

func cell(t *Table, row, col int) float64 {
	v, err := strconv.ParseFloat(t.Rows[row][col], 64)
	if err != nil {
		panic(err)
	}
	return v
}

func rowByName(t *Table, name string) []string {
	for _, r := range t.Rows {
		if r[0] == name {
			return r
		}
	}
	return nil
}

// TestFig12Shape pins the paper's scalability shape: GUPS/kmeans/mer
// near-linear at 8 nodes, SSSP-1 the worst scaler, and a healthy
// geo-mean (the paper reports 5.3x at full scale; the reduced inputs
// land somewhat lower).
func TestFig12Shape(t *testing.T) {
	tb := table(t, "fig12")
	col8 := len(tb.Header) - 1
	get := func(name string) float64 {
		r := rowByName(tb, name)
		if r == nil {
			t.Fatalf("row %q missing", name)
		}
		v, _ := strconv.ParseFloat(r[col8], 64)
		return v
	}
	for _, name := range []string{"GUPS", "kmeans", "mer"} {
		if v := get(name); v < 7.0 {
			t.Errorf("%s 8-node speedup = %.2f, want near-linear (>7)", name, v)
		}
	}
	sssp1 := get("SSSP-1")
	for _, name := range []string{"GUPS", "PR-1", "PR-2", "SSSP-2", "kmeans", "mer"} {
		if v := get(name); v < sssp1 {
			t.Errorf("%s (%.2f) scales worse than SSSP-1 (%.2f); paper has SSSP-1 worst", name, v, sssp1)
		}
	}
	if g := get("geo. mean"); g < 3.0 || g > 8.0 {
		t.Errorf("geo-mean 8-node speedup = %.2f, want in [3,8] (paper: 5.3)", g)
	}
}

// TestTable5Shape pins the remote-access frequencies against the paper.
func TestTable5Shape(t *testing.T) {
	tb := table(t, "table5")
	want := map[string][2]float64{ // [lo, hi] percent
		"GUPS":    {86, 89},
		"kmeans":  {86, 89},
		"mer":     {86, 89},
		"PR-1":    {30, 46},
		"PR-2":    {12, 24},
		"SSSP-1":  {24, 40},
		"SSSP-2":  {12, 24},
		"color-1": {30, 46},
		"color-2": {12, 24},
	}
	for name, band := range want {
		r := rowByName(tb, name)
		if r == nil {
			t.Fatalf("row %q missing", name)
		}
		v, _ := strconv.ParseFloat(strings.TrimSuffix(r[1], "%"), 64)
		if v < band[0] || v > band[1] {
			t.Errorf("%s remote freq = %.1f%%, want in [%g,%g]", name, v, band[0], band[1])
		}
	}
}

// TestFig15Shape pins the style-comparison ordering: Gravel at least
// ties everywhere, message-per-lane collapses on GUPS, and GPU-wide
// aggregation brings coalesced APIs close to Gravel.
func TestFig15Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("fig15 sweep is slow")
	}
	tb := table(t, "fig15")
	idx := map[string]int{}
	for i, h := range tb.Header {
		idx[h] = i
	}
	for _, row := range tb.Rows {
		name := row[0]
		gr, _ := strconv.ParseFloat(row[idx["gravel"]], 64)
		for _, m := range []string{"coprocessor", "coprocessor+buf", "msg-per-lane", "coalesced"} {
			v, _ := strconv.ParseFloat(row[idx[m]], 64)
			if v > gr*1.10 {
				t.Errorf("%s: %s (%.2f) beats gravel (%.2f)", name, m, v, gr)
			}
		}
		ca, _ := strconv.ParseFloat(row[idx["coalesced+agg"]], 64)
		if ca < gr*0.5 {
			t.Errorf("%s: coalesced+agg (%.2f) should be near gravel (%.2f)", name, ca, gr)
		}
		if name == "GUPS" {
			mpl, _ := strconv.ParseFloat(row[idx["msg-per-lane"]], 64)
			if mpl > 0.2 {
				t.Errorf("GUPS msg-per-lane = %.3f, want collapse (paper ~0.01)", mpl)
			}
		}
	}
}

// TestSec82Shape pins the diverged-operation speedups near the paper's
// 1.28x (WG control flow) and 1.06x (software fbar).
func TestSec82Shape(t *testing.T) {
	tb := table(t, "sec82")
	wgcf := cell(tb, 1, 2)
	fbar := cell(tb, 2, 2)
	if wgcf < 1.1 || wgcf > 1.5 {
		t.Errorf("WG control flow speedup = %.2f, want ≈ 1.28", wgcf)
	}
	if fbar < 0.95 || fbar > 1.25 {
		t.Errorf("fbar speedup = %.2f, want ≈ 1.06", fbar)
	}
	if fbar >= wgcf {
		t.Errorf("fbar (%.2f) should trail WG control flow (%.2f)", fbar, wgcf)
	}
}

// TestFig14Shape: multi-node GUPS improves with queue size and
// plateaus; tiny queues are far below the plateau.
func TestFig14Shape(t *testing.T) {
	tb := table(t, "fig14")
	col8 := len(tb.Header) - 1
	tiny := cell(tb, 0, col8)
	mid := cell(tb, 2, col8)  // 4 kB
	knee := cell(tb, 3, col8) // 32 kB
	top := cell(tb, len(tb.Rows)-1, col8)
	if tiny > 0.25*top {
		t.Errorf("64 B queues (%.4f) should be far below plateau (%.4f)", tiny, top)
	}
	if mid >= knee {
		t.Errorf("4 kB (%.4f) should trail 32 kB (%.4f)", mid, knee)
	}
	if knee < 0.85*top {
		t.Errorf("32 kB (%.4f) should be near plateau (%.4f)", knee, top)
	}
}

// TestFig13Shape: the GPU system beats the CPU system at both scales.
func TestFig13Shape(t *testing.T) {
	tb := table(t, "fig13")
	for _, row := range tb.Rows {
		cpu8, _ := strconv.ParseFloat(row[2], 64)
		g1, _ := strconv.ParseFloat(row[3], 64)
		g8, _ := strconv.ParseFloat(row[4], 64)
		if g1 <= 1.0 {
			t.Errorf("%s: 1 Gravel node (%.2f) should beat 1 CPU node", row[0], g1)
		}
		if g8 <= cpu8 {
			t.Errorf("%s: 8 Gravel nodes (%.2f) should beat 8 CPU nodes (%.2f)", row[0], g8, cpu8)
		}
	}
}

// TestTable2Counts: the measured line counts must reproduce the paper's
// ordering (coprocessor > coalesced > gravel path).
func TestTable2Counts(t *testing.T) {
	tb := table(t, "table2")
	g := cell(tb, 0, 1)
	cop := cell(tb, 1, 1)
	coal := cell(tb, 2, 1)
	if g == 0 || cop == 0 || coal == 0 {
		t.Skip("source tree not available at runtime")
	}
	if !(cop > coal && coal > g) {
		t.Errorf("LoC ordering: coprocessor=%v coalesced=%v gravel=%v, want cop > coal > gravel", cop, coal, g)
	}
}

// TestDivergenceModesPreserveResults: §8.2 modes change timing, never
// results.
func TestDivergenceModesPreserveResults(t *testing.T) {
	cfg := gups.ModConfig{TableSize: 1 << 12, WIsPerNode: 1 << 13, Seed: 3}
	var sums []uint64
	for _, mode := range []simt.DivergenceMode{simt.SoftwarePredication, simt.WGReconvergence, simt.FineGrainBarrier} {
		cl := core.New(core.Config{Nodes: 4, DivMode: mode})
		res := gups.RunMod(cl, cfg)
		cl.Close()
		if res.Sum != uint64(res.Updates) {
			t.Errorf("mode %v: sum %d != updates %d", mode, res.Sum, res.Updates)
		}
		sums = append(sums, res.Sum)
	}
	if sums[0] != sums[1] || sums[1] != sums[2] {
		t.Errorf("modes disagree: %v", sums)
	}
}
