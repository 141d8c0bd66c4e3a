package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"gravel/internal/cliflags"
	"gravel/internal/noderun"
	"gravel/internal/obs"
)

// The scale-out bench drives a live, planned membership change through
// the elastic launcher: a pagerank run starts on 2 workers, and once a
// complete checkpoint cut exists the run is rescaled to 4 — the first
// epoch unwinds at a step barrier, the saved ranks are re-sharded over
// the new membership, and the run finishes. The bench reports
// per-epoch throughput (vertex-updates/sec, derived from the
// checkpoint cadence: one cut per iteration) and verifies the scaled
// run stays bit-identical to the undisturbed single-process reference.

// ScaleOutBench is the -scaleout -json document.
type ScaleOutBench struct {
	Bench        string          `json:"bench"`
	App          string          `json:"app"`
	Model        string          `json:"model"`
	Verts        int             `json:"verts"`
	Iters        int             `json:"iters"`
	FromNodes    int             `json:"from_nodes"`
	ToNodes      int             `json:"to_nodes"`
	Check        uint64          `json:"check"`
	RefCheck     uint64          `json:"ref_check"`
	BitIdentical bool            `json:"bit_identical"`
	Recovered    int             `json:"recovered"`
	WallMs       float64         `json:"wall_ms"`
	Epochs       []ScaleOutEpoch `json:"epochs"`
}

// ScaleOutEpoch is one membership epoch's share of the run.
type ScaleOutEpoch struct {
	Gen     uint32  `json:"gen"`
	Nodes   int     `json:"nodes"`
	Outcome string  `json:"outcome"`
	WallMs  float64 `json:"wall_ms"`
	// Iters is the epoch's completed iterations, derived from the
	// checkpoint cuts the epoch produced (cadence 1 cut/iteration; the
	// final iteration does not checkpoint and is credited to the last
	// epoch).
	Iters int `json:"iters"`
	// VertexUpdatesPerSec is Iters*Verts normalized by the epoch wall.
	VertexUpdatesPerSec float64 `json:"vertex_updates_per_sec"`
}

// scaleOutSpec is the benched workload: in-process workers over real
// TCP, checkpointing at every iteration barrier so the rescale cut is
// always fresh.
func scaleOutSpec() noderun.Spec {
	s := noderun.Spec{App: "pagerank", Model: *model, Nodes: 2, Fabric: noderun.FabricTCP, Elastic: true}
	s.Params.Verts = *verts
	if s.Params.Verts == 0 {
		s.Params.Verts = 2048
	}
	s.Params.Iters = *iters
	if s.Params.Iters == 0 {
		s.Params.Iters = 30
	}
	s.Params.Scale = 1
	s.Suspect = 5 * time.Second
	s.Heartbeat = 250 * time.Millisecond
	s.CoordTimeout = 10 * time.Second
	s.CoordRPCTimeout = 5 * time.Second
	return s
}

// runScaleOut executes the 2 -> 4 sweep and writes the JSON report to
// jsonPath, if one is named.
func runScaleOut(jsonPath string) error {
	s := scaleOutSpec()

	// Undisturbed reference on the in-process fabric.
	sref := s
	sref.Fabric = noderun.FabricLocal
	sref.Elastic = false
	ref, err := noderun.RunLocal(sref)
	if err != nil {
		return err
	}

	rec := obs.Start(obs.Options{})
	defer obs.Stop()

	// Per-epoch iteration attribution: sample the checkpoint counter at
	// each epoch boundary; one complete cut is one iteration's worth of
	// per-worker saves.
	type boundary struct {
		nodes int
		cuts  int64
	}
	var mu sync.Mutex
	var bounds []boundary
	var once sync.Once
	l := noderun.Launcher{Hooks: noderun.Hooks{
		EpochStarted: func(gen uint32, nodes int, rescale func(int)) {
			mu.Lock()
			bounds = append(bounds, boundary{nodes: nodes, cuts: rec.Count(obs.KCheckpoint)})
			mu.Unlock()
			if nodes != 2 {
				return
			}
			go func() {
				// Rescale as soon as a complete 2-node cut exists, so the
				// 4-node epoch restores instead of cold-starting.
				for rec.Count(obs.KCheckpoint) < 2*int64(nodes) {
					time.Sleep(200 * time.Microsecond)
				}
				once.Do(func() { rescale(4) })
			}()
		},
	}}
	start := time.Now()
	res, err := l.Run(context.Background(), s)
	if err != nil {
		return fmt.Errorf("scale-out run failed: %w", err)
	}
	wall := time.Since(start)
	finalCuts := rec.Count(obs.KCheckpoint)

	doc := ScaleOutBench{
		Bench:        "elastic-scaleout",
		App:          s.App,
		Model:        s.Model,
		Verts:        s.Params.Verts,
		Iters:        s.Params.Iters,
		FromNodes:    2,
		ToNodes:      4,
		Check:        res.Check,
		RefCheck:     ref.Check,
		BitIdentical: res.Check == ref.Check,
		Recovered:    res.Recovered,
		WallMs:       float64(wall.Nanoseconds()) / 1e6,
	}
	mu.Lock()
	defer mu.Unlock()
	credited := 0
	for i, e := range res.EpochLog {
		ep := ScaleOutEpoch{Gen: e.Gen, Nodes: e.Nodes, Outcome: e.Outcome,
			WallMs: float64(e.WallNs) / 1e6}
		if i < len(bounds) {
			end := finalCuts
			if i+1 < len(bounds) {
				end = bounds[i+1].cuts
			}
			ep.Iters = int(end-bounds[i].cuts) / e.Nodes
		}
		if i == len(res.EpochLog)-1 {
			// The final iteration never checkpoints; the closing epoch also
			// re-runs nothing past the restore point, so credit it the
			// remainder.
			if rest := s.Params.Iters - credited - ep.Iters; rest > 0 && ep.Iters+rest <= s.Params.Iters {
				ep.Iters += rest
			}
		}
		credited += ep.Iters
		if e.WallNs > 0 {
			ep.VertexUpdatesPerSec = float64(ep.Iters) * float64(s.Params.Verts) / (float64(e.WallNs) / 1e9)
		}
		doc.Epochs = append(doc.Epochs, ep)
	}
	if !doc.BitIdentical {
		return fmt.Errorf("scaled-out checksum %d diverged from reference %d", res.Check, ref.Check)
	}
	if jsonPath != "" {
		if err := cliflags.WriteJSON(jsonPath, doc); err != nil {
			return err
		}
	}
	for _, ep := range doc.Epochs {
		fmt.Printf("scaleout: gen %d, %d nodes, %d iters in %.1fms (%.0f vertex-updates/s, %s)\n",
			ep.Gen, ep.Nodes, ep.Iters, ep.WallMs, ep.VertexUpdatesPerSec, ep.Outcome)
	}
	fmt.Printf("scaleout: PASS bit-identical check %d across %d epochs\n", res.Check, len(doc.Epochs))
	if jsonPath != "" {
		fmt.Printf("scaleout: wrote %s\n", jsonPath)
	}
	return nil
}
