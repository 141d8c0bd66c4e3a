package models_test

import (
	"testing"

	"gravel/internal/apps/color"
	"gravel/internal/apps/gups"
	"gravel/internal/apps/kmeans"
	"gravel/internal/apps/mer"
	"gravel/internal/apps/pagerank"
	"gravel/internal/apps/sssp"
	"gravel/internal/graph"
	"gravel/internal/models"
	"gravel/internal/obs"
	"gravel/internal/rt"
)

// allSystems includes the six Figure 15 systems plus the Figure 13
// CPU-only baseline.
func allSystems() []string {
	return append(models.Names(), "cpu-only")
}

// TestAllModelsAgreeOnGUPS checks functional equivalence of every
// networking model: same inputs, same final table.
func TestAllModelsAgreeOnGUPS(t *testing.T) {
	const nodes = 4
	cfg := gups.Config{TableSize: 1 << 13, UpdatesPerNode: 1 << 12, Seed: 5}
	for _, name := range allSystems() {
		sys := models.New(name, nodes, nil)
		res := gups.Run(sys, cfg)
		ns := sys.Stats().Queue
		sys.Close()
		if res.Sum != uint64(res.Updates) {
			t.Errorf("%s: sum=%d updates=%d", name, res.Sum, res.Updates)
		}
		if res.Ns <= 0 {
			t.Errorf("%s: no virtual time", name)
		}
		if ns.LocalOps+ns.RemoteOps != res.Updates {
			t.Errorf("%s: ops=%d, want %d", name, ns.LocalOps+ns.RemoteOps, res.Updates)
		}
	}
}

func TestAllModelsAgreeOnPageRank(t *testing.T) {
	const nodes = 4
	g := graph.Random(500, 6, 9)
	want := pagerank.Reference(g, 3)
	var wantSum uint64
	for _, r := range want {
		wantSum += r
	}
	for _, name := range allSystems() {
		sys := models.New(name, nodes, nil)
		res := pagerank.Run(sys, pagerank.Config{G: g, Iters: 3})
		sys.Close()
		if got := res.RankSum; got != float64(wantSum)/pagerank.Scale {
			t.Errorf("%s: rank sum %v, want %v", name, got, float64(wantSum)/pagerank.Scale)
		}
	}
}

func TestAllModelsAgreeOnSSSP(t *testing.T) {
	const nodes = 4
	g := graph.Random(400, 6, 12)
	want := sssp.ChecksumDists(sssp.Reference(g, 0))
	for _, name := range allSystems() {
		sys := models.New(name, nodes, nil)
		res := sssp.Run(sys, sssp.Config{G: g, Source: 0})
		sys.Close()
		if res.Checksum != want {
			t.Errorf("%s: distance checksum mismatch", name)
		}
	}
}

func TestAllModelsAgreeOnColor(t *testing.T) {
	const nodes = 4
	g := graph.Random(300, 6, 15)
	for _, name := range allSystems() {
		sys := models.New(name, nodes, nil)
		res := color.Run(sys, color.Config{G: g, Seed: 3})
		if res.Colored != int64(g.N) {
			t.Errorf("%s: colored %d of %d", name, res.Colored, g.N)
		} else if err := color.Validate(g, res.ColorAt); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		sys.Close()
	}
}

func TestAllModelsAgreeOnKmeans(t *testing.T) {
	const nodes = 4
	cfg := kmeans.Config{PointsPerNode: 1000, K: 8, Iters: 3, Seed: 11}
	want := kmeans.Reference(cfg, nodes)
	for _, name := range allSystems() {
		sys := models.New(name, nodes, nil)
		res := kmeans.Run(sys, cfg)
		sys.Close()
		for i := range want {
			if res.Centroids[i] != want[i] {
				t.Errorf("%s: centroid[%d] mismatch", name, i)
				break
			}
		}
	}
}

func TestAllModelsAgreeOnMer(t *testing.T) {
	const nodes = 4
	cfg := mer.Config{GenomeLen: 10000, ReadsPerNode: 150, ReadLen: 60, K: 15, Seed: 2}
	ref := mer.ReferenceCounts(cfg, nodes)
	for _, name := range allSystems() {
		sys := models.New(name, nodes, nil)
		res := mer.Run(sys, cfg)
		sys.Close()
		if res.Inserted != res.Expected {
			t.Errorf("%s: inserted %d, want %d", name, res.Inserted, res.Expected)
		}
		if res.Distinct != int64(len(ref)) {
			t.Errorf("%s: distinct %d, want %d", name, res.Distinct, len(ref))
		}
	}
}

// TestModelOrderingGUPS sanity-checks the Figure 15 shape on GUPS at
// 4 nodes: gravel beats msg-per-lane by a wide margin, and coalesced+agg
// lands close to gravel.
func TestModelOrderingGUPS(t *testing.T) {
	const nodes = 4
	cfg := gups.Config{TableSize: 1 << 14, UpdatesPerNode: 1 << 14, Seed: 5}
	ns := map[string]float64{}
	for _, name := range allSystems() {
		sys := models.New(name, nodes, nil)
		res := gups.Run(sys, cfg)
		sys.Close()
		ns[name] = res.Ns
	}
	if ns["msg-per-lane"] < 4*ns["gravel"] {
		t.Errorf("msg-per-lane (%.0f) should be far slower than gravel (%.0f)", ns["msg-per-lane"], ns["gravel"])
	}
	if ns["coprocessor"] < ns["gravel"] {
		t.Errorf("coprocessor (%.0f) should be slower than gravel (%.0f)", ns["coprocessor"], ns["gravel"])
	}
}

// TestSystemsReportStats ensures every model fills in Stats.
func TestSystemsReportStats(t *testing.T) {
	for _, name := range allSystems() {
		sys := models.New(name, 2, nil)
		gups.Run(sys, gups.Config{TableSize: 1 << 10, UpdatesPerNode: 1 << 10, Seed: 1})
		st := sys.Stats().Transport
		if st.WirePackets == 0 && name != "cpu-only" {
			t.Errorf("%s: no wire packets recorded", name)
		}
		if sys.Name() != name && !(name == "cpu-only" && sys.Name() == "cpu-only") {
			t.Errorf("Name() = %q, want %q", sys.Name(), name)
		}
		var _ rt.System = sys
		sys.Close()
	}
}

// TestEveryModelStepHasPrologue: whichever path a model launches
// through, each of its steps measures wall time and pairs one
// step-begin with its step-end in the flight recorder.
func TestEveryModelStepHasPrologue(t *testing.T) {
	cfg := gups.Config{TableSize: 1 << 10, UpdatesPerNode: 1 << 10, Seed: 1, Steps: 3}
	for _, m := range models.Table {
		rec := obs.Start(obs.Options{})
		sys := models.New(m.Name, 2, nil)
		gups.Run(sys, cfg)
		steps := sys.Stats().Steps
		sys.Close()
		obs.Stop()
		if len(steps) != cfg.Steps {
			t.Errorf("%s: %d steps recorded, want %d", m.Name, len(steps), cfg.Steps)
		}
		for _, s := range steps {
			if s.WallNs <= 0 {
				t.Errorf("%s: step %d (%s) has WallNs %d", m.Name, s.Index, s.Name, s.WallNs)
			}
		}
		begins, ends := rec.Count(obs.KStepBegin), rec.Count(obs.KStepEnd)
		if begins != ends || ends != int64(len(steps)) {
			t.Errorf("%s: %d step-begin and %d step-end events for %d steps", m.Name, begins, ends, len(steps))
		}
	}
}
