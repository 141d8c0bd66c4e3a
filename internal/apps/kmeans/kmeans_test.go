package kmeans_test

import (
	"testing"

	"gravel/internal/apps/kmeans"
	"gravel/internal/core"
)

func TestKmeansMatchesReference(t *testing.T) {
	cfg := kmeans.Config{PointsPerNode: 2000, K: 8, Dims: 2, Iters: 4, Seed: 17}
	for _, nodes := range []int{1, 2, 4} {
		want := kmeans.Reference(cfg, nodes)
		cl := core.New(core.Config{Nodes: nodes})
		res := kmeans.Run(cl, cfg)
		cl.Close()
		if len(res.Centroids) != len(want) {
			t.Fatalf("centroid count mismatch")
		}
		for i := range want {
			if res.Centroids[i] != want[i] {
				t.Errorf("nodes=%d: centroid[%d] = %d, want %d", nodes, i, res.Centroids[i], want[i])
				break
			}
		}
	}
}

func TestKmeansCountsCoverAllPoints(t *testing.T) {
	cfg := kmeans.Config{PointsPerNode: 1500, K: 4, Dims: 3, Iters: 2, Seed: 5}
	cl := core.New(core.Config{Nodes: 3})
	defer cl.Close()
	res := kmeans.Run(cl, cfg)
	var total int64
	for _, c := range res.Counts {
		total += c
	}
	if total != int64(3*cfg.PointsPerNode) {
		t.Fatalf("counts total %d, want %d", total, 3*cfg.PointsPerNode)
	}
	// Planted clusters: every cluster should get a reasonable share.
	for c, n := range res.Counts {
		if n == 0 {
			t.Errorf("cluster %d empty", c)
		}
	}
}

func TestKmeansRemoteFraction(t *testing.T) {
	// K=8 on 8 nodes: each node owns one cluster's accumulators, so
	// ~87.5% of updates are remote (Table 5).
	cl := core.New(core.Config{Nodes: 8})
	defer cl.Close()
	kmeans.Run(cl, kmeans.Config{PointsPerNode: 1000, K: 8, Iters: 2, Seed: 3})
	f := cl.Stats().Queue.RemoteFrac()
	if f < 0.82 || f > 0.93 {
		t.Errorf("remote frac = %.3f, want ≈ 0.875", f)
	}
}
