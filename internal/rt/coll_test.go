package rt_test

import (
	"math"
	"testing"

	"gravel/internal/rt"
)

func TestReduceOpSemantics(t *testing.T) {
	for _, tc := range []struct {
		op       rt.ReduceOp
		name     string
		identity uint64
		a, b     uint64
		want     uint64
	}{
		{rt.OpSum, "sum", 0, 3, 4, 7},
		{rt.OpMin, "min", math.MaxUint64, 3, 4, 3},
		{rt.OpMax, "max", 0, 3, 4, 4},
	} {
		if tc.op.String() != tc.name {
			t.Errorf("%v.String() = %q, want %q", tc.op, tc.op.String(), tc.name)
		}
		if tc.op.Identity() != tc.identity {
			t.Errorf("%s identity = %d, want %d", tc.name, tc.op.Identity(), tc.identity)
		}
		if got := tc.op.Combine(tc.a, tc.b); got != tc.want {
			t.Errorf("%s.Combine(%d,%d) = %d, want %d", tc.name, tc.a, tc.b, got, tc.want)
		}
		// The identity must be absorbed from either side.
		if tc.op.Combine(tc.identity, tc.a) != tc.a || tc.op.Combine(tc.a, tc.identity) != tc.a {
			t.Errorf("%s identity not neutral", tc.name)
		}
	}
}

func TestTeamSemantics(t *testing.T) {
	w := rt.WorldTeam
	if !w.World() || w.Tag() != "" || w.Size(5) != 5 || !w.Contains(4) || w.Rank(3) != 3 {
		t.Fatalf("world team misbehaves: tag=%q size=%d", w.Tag(), w.Size(5))
	}
	if m := w.Members(3); len(m) != 3 || m[0] != 0 || m[2] != 2 {
		t.Fatalf("world members = %v", m)
	}

	// Members are sorted regardless of construction order, and the tag
	// is canonical.
	tm := rt.TeamOf(4, 1, 2)
	if tm.World() {
		t.Fatal("explicit team reports world")
	}
	if m := tm.Members(8); len(m) != 3 || m[0] != 1 || m[1] != 2 || m[2] != 4 {
		t.Fatalf("members = %v, want [1 2 4]", m)
	}
	if tm.Tag() != "@t1.2.4" || tm.Tag() != rt.TeamOf(2, 4, 1).Tag() {
		t.Fatalf("tag = %q, want canonical @t1.2.4", tm.Tag())
	}
	if tm.Size(8) != 3 || !tm.Contains(2) || tm.Contains(3) {
		t.Fatal("membership wrong")
	}
	if tm.Rank(1) != 0 || tm.Rank(4) != 2 || tm.Rank(0) != -1 {
		t.Fatalf("ranks: %d %d %d", tm.Rank(1), tm.Rank(4), tm.Rank(0))
	}
}

// TestNilCollectivesIdentity: the package helper treats a nil
// Collectives as the single-process identity — the local value already
// is the global fold.
func TestNilCollectivesIdentity(t *testing.T) {
	if v, err := rt.AllReduce(nil, "k", rt.WorldTeam, rt.OpMin, 9); v != 9 || err != nil {
		t.Fatalf("nil AllReduce = %d, %v", v, err)
	}
}
