package mer_test

import (
	"testing"

	"gravel/internal/apps/mer"
	"gravel/internal/core"
)

func TestMerMatchesReference(t *testing.T) {
	cfg := mer.Config{GenomeLen: 20000, ReadsPerNode: 300, ReadLen: 80, K: 19, Seed: 4}
	for _, nodes := range []int{1, 2, 4} {
		ref := mer.ReferenceCounts(cfg, nodes)
		cl := core.New(core.Config{Nodes: nodes})
		res := mer.Run(cl, cfg)
		cl.Close()
		if res.Inserted != res.Expected {
			t.Errorf("nodes=%d: inserted %d, expected %d", nodes, res.Inserted, res.Expected)
		}
		if res.Distinct != int64(len(ref)) {
			t.Errorf("nodes=%d: distinct %d, reference %d", nodes, res.Distinct, len(ref))
		}
		// Every reference k-mer must be found at its owner with the
		// right multiplicity.
		for km, n := range ref {
			owner := mer.Owner(km, nodes)
			if got := res.Tables[owner].Lookup(km); got != n {
				t.Errorf("nodes=%d: kmer %x count %d, want %d", nodes, km, got, n)
				break
			}
		}
	}
}

func TestTableProbing(t *testing.T) {
	tb := mer.NewTable(16)
	for i := uint64(0); i < 10; i++ {
		tb.Insert(i*1024, 0x12)
		tb.Insert(i*1024, 0x21)
	}
	for i := uint64(0); i < 10; i++ {
		if got := tb.Lookup(i * 1024); got != 2 {
			t.Fatalf("Lookup(%d) = %d, want 2", i*1024, got)
		}
	}
	if tb.Lookup(999999) != 0 {
		t.Fatalf("lookup of absent k-mer should be 0")
	}
	if got := tb.Ext(1024); got != 0x33 {
		t.Fatalf("extension masks not merged: %#x", got)
	}
	if tb.Ext(999999) != 0 {
		t.Fatalf("absent k-mer should have empty mask")
	}
}

func TestMerRemoteFraction(t *testing.T) {
	cl := core.New(core.Config{Nodes: 8})
	defer cl.Close()
	mer.Run(cl, mer.Config{GenomeLen: 20000, ReadsPerNode: 200, ReadLen: 60, K: 15, Seed: 8})
	f := cl.Stats().Queue.RemoteFrac()
	if f < 0.82 || f > 0.93 {
		t.Errorf("remote frac = %.3f, want ≈ 0.875", f)
	}
}
