package histogram_test

import (
	"testing"

	"gravel/internal/apps/histogram"
	"gravel/internal/ckpt"
	"gravel/internal/models"
	"gravel/internal/rt"
)

// TestElasticRestoreBitIdentical pins the single-cut checkpoint: a run
// saving after the counting phase, and a fresh run resumed from that
// cut (which must skip the counting phase entirely), both reproduce the
// undisturbed run's results bit for bit.
func TestElasticRestoreBitIdentical(t *testing.T) {
	cfg := histogram.Config{SamplesPerNode: 5000, Buckets: 512, Seed: 9}

	refSys := models.New("gravel", 1, nil)
	ref := histogram.RunAt(refSys, cfg, rt.Where{Node: 0})
	refSys.Close()
	if ref.Err != nil {
		t.Fatal(ref.Err)
	}

	var cut []byte
	saves := 0
	saveSys := models.New("gravel", 1, nil)
	r := histogram.RunAt(saveSys, cfg, rt.Where{Node: 0, Ckpt: ckpt.Run{
		Save: func(step uint64, data []byte) error {
			saves++
			cut = append([]byte(nil), data...)
			return nil
		},
	}})
	saveSys.Close()
	if saves != 1 {
		t.Fatalf("saved %d cuts, want exactly 1", saves)
	}
	if r.Err != nil || r.Check != ref.Check {
		t.Fatalf("saving run diverged from plain run: %+v vs %+v", r, ref)
	}

	sys := models.New("gravel", 1, nil)
	got := histogram.RunAt(sys, cfg, rt.Where{Node: 0, Ckpt: ckpt.Run{Resume: [][]byte{cut}}})
	sys.Close()
	if got.Err != nil || got.Check != ref.Check || got.Samples != ref.Samples ||
		got.MinBucket != ref.MinBucket || got.MaxBucket != ref.MaxBucket {
		t.Fatalf("resumed run diverged: %+v vs %+v", got, ref)
	}
}
