package transport

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"gravel/internal/fabric"
	"gravel/internal/pgas"
	"gravel/internal/rt"
	"gravel/internal/timemodel"
)

// TestVerifySymmetricRejectsPermutedOrder: on a real 2-node cluster,
// node 1 allocating two arrays in the swapped order is a
// *rt.SymmetryError on both members, within the deadline; matching
// orders on the same cluster afterwards verify.
func TestVerifySymmetricRejectsPermutedOrder(t *testing.T) {
	fabs := newTCPCluster(t, 2)
	defer closeAll(fabs)
	for _, swap := range []bool{true, false} {
		_, errs := collAll(t, fabs, []int{0, 1}, func(c rt.Collectives, self int) (uint64, error) {
			sp, sizes := pgas.NewSpace(2), []int{8, 16}
			if swap && self == 1 {
				sizes[0], sizes[1] = sizes[1], sizes[0]
			}
			for _, n := range sizes {
				sp.SymAlloc(n)
			}
			return 0, rt.VerifySymmetric(c, sp, fmt.Sprint("swap=", swap))
		})
		for node, err := range errs {
			var se *rt.SymmetryError
			if swap && !(errors.As(err, &se) && se.Min != se.Max) || !swap && err != nil {
				t.Errorf("swapped order %v: node %d got %v", swap, node, err)
			}
		}
	}
}

// collAll runs fn concurrently as every listed member's collective call
// and returns the per-member results, failing the test if a call is
// still blocked after ten seconds.
func collAll(t *testing.T, fabs []*TCP, members []int, fn func(c rt.Collectives, self int) (uint64, error)) ([]uint64, []error) {
	t.Helper()
	out := make([]uint64, len(members))
	errs := make([]error, len(members))
	var wg sync.WaitGroup
	for i, m := range members {
		wg.Add(1)
		go func(i, m int) {
			defer wg.Done()
			out[i], errs[i] = fn(fabs[m].Collectives(), m)
		}(i, m)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("collective on nodes %v still blocked after 10s", members)
	}
	return out, errs
}

// collOK is collAll for calls that must succeed.
func collOK(t *testing.T, fabs []*TCP, members []int, fn func(c rt.Collectives, self int) (uint64, error)) []uint64 {
	t.Helper()
	out, errs := collAll(t, fabs, members, fn)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("member %d: %v", members[i], err)
		}
	}
	return out
}

// TestTCPCollectives runs AllReduce over a real 4-process cluster:
// world and team folds under every op, with non-members running a
// disjoint collective concurrently (teams must neither block nor be
// blocked).
func TestTCPCollectives(t *testing.T) {
	fabs := newTCPCluster(t, 4)
	defer closeAll(fabs)
	world := []int{0, 1, 2, 3}

	// World sum.
	vals := []uint64{10, 20, 30, 40}
	got := collOK(t, fabs, world, func(c rt.Collectives, self int) (uint64, error) {
		return c.AllReduce("s", rt.WorldTeam, rt.OpSum, vals[self])
	})
	for i, v := range got {
		if v != 100 {
			t.Fatalf("world sum at %d = %d, want 100", i, v)
		}
	}

	// Min and max.
	got = collOK(t, fabs, world, func(c rt.Collectives, self int) (uint64, error) {
		return c.AllReduce("mn", rt.WorldTeam, rt.OpMin, vals[self])
	})
	if got[2] != 10 {
		t.Fatalf("world min = %d, want 10", got[2])
	}
	got = collOK(t, fabs, world, func(c rt.Collectives, self int) (uint64, error) {
		return c.AllReduce("mx", rt.WorldTeam, rt.OpMax, vals[self])
	})
	if got[1] != 40 {
		t.Fatalf("world max = %d, want 40", got[1])
	}

	// Two disjoint teams run different collectives concurrently under
	// the same key: the team tag keeps their collectives apart. The low
	// team's sum and the high team's min are both 30.
	low, high := rt.TeamOf(0, 1), rt.TeamOf(2, 3)
	got = collOK(t, fabs, world, func(c rt.Collectives, self int) (uint64, error) {
		if low.Contains(self) {
			return c.AllReduce("t", low, rt.OpSum, vals[self])
		}
		return c.AllReduce("t", high, rt.OpMin, vals[self])
	})
	for i, v := range got {
		if v != 30 {
			t.Fatalf("team fold at %d = %d, want 30", i, v)
		}
	}

	// Non-members get a typed error and send nothing.
	var ce *rt.CollectiveError
	if _, err := fabs[3].Collectives().AllReduce("t2", low, rt.OpSum, 1); !errors.As(err, &ce) {
		t.Fatalf("non-member allreduce err = %v, want *CollectiveError", err)
	}
}

// TestStandaloneCollectivesIdentity: on a coordinator-less
// single-process fabric a collective is the identity.
func TestStandaloneCollectivesIdentity(t *testing.T) {
	f, err := NewTCP(timemodel.Default(), newClocks(1), fabric.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	c := f.Collectives()
	if v, err := c.AllReduce("k", rt.WorldTeam, rt.OpMin, 11); v != 11 || err != nil {
		t.Fatalf("standalone allreduce = %d, %v", v, err)
	}
}
