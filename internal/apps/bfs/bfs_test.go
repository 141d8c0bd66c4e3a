package bfs_test

import (
	"testing"

	"gravel/internal/apps/bfs"
	"gravel/internal/ckpt"
	"gravel/internal/graph"
	"gravel/internal/models"
	"gravel/internal/rt"
)

// TestElasticRestoreBitIdentical pins the checkpoint codec and restore
// path: a run saving a cut at every level round, and a fresh run
// resumed from each of those cuts, must all reproduce the undisturbed
// run's results bit for bit — including the bottom-up rounds, whose
// cumulative arrival counters restart at zero in the resumed epoch.
func TestElasticRestoreBitIdentical(t *testing.T) {
	g := graph.Random(1024, 8, 42)
	cfg := bfs.Config{G: g}

	refSys := models.New("gravel", 1, nil)
	ref := bfs.RunAt(refSys, cfg, rt.Where{Node: 0})
	refSys.Close()
	if ref.BottomUp == 0 {
		t.Fatalf("reference ran no bottom-up rounds (levels=%d) — input too sparse to cover the signal path", ref.Levels)
	}

	var cuts [][]byte
	var rounds []uint64
	saveSys := models.New("gravel", 1, nil)
	r := bfs.RunAt(saveSys, cfg, rt.Where{Node: 0, Ckpt: ckpt.Run{
		Save: func(round uint64, data []byte) error {
			rounds = append(rounds, round)
			cuts = append(cuts, append([]byte(nil), data...))
			return nil
		},
	}})
	saveSys.Close()
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if r.Checksum != ref.Checksum || r.LevelSum != ref.LevelSum {
		t.Fatalf("saving run diverged from plain run: %+v vs %+v", r, ref)
	}
	if len(cuts) == 0 {
		t.Fatal("no checkpoints saved")
	}

	for i, cut := range cuts {
		sys := models.New("gravel", 1, nil)
		got := bfs.RunAt(sys, cfg, rt.Where{Node: 0, Ckpt: ckpt.Run{Resume: [][]byte{cut}}})
		sys.Close()
		if got.Err != nil {
			t.Fatalf("resume from round %d: %v", rounds[i], got.Err)
		}
		if got.Checksum != ref.Checksum || got.LevelSum != ref.LevelSum || got.Reached != ref.Reached ||
			got.Levels != ref.Levels || got.BottomUp != ref.BottomUp {
			t.Fatalf("resume from round %d diverged: %+v vs %+v", rounds[i], got, ref)
		}
	}
}
