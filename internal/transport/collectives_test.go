package transport

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"gravel/internal/fabric"
	"gravel/internal/rt"
	"gravel/internal/timemodel"
)

// TestCollectiveTypedFailures drives the peer path's misuse rows on a
// real 2-node cluster: every member that called gets a
// *rt.CollectiveError within the deadline, never a hang, and a correct
// collective on the same cluster afterwards still folds.
func TestCollectiveTypedFailures(t *testing.T) {
	fabs := newTCPCluster(t, 2)
	defer closeAll(fabs)
	for _, tc := range []struct {
		name    string
		callers []int
		call    func(c rt.Collectives, self int) (uint64, error)
	}{
		{"unknown operator", []int{0}, func(c rt.Collectives, self int) (uint64, error) {
			return c.AllReduce("u", rt.WorldTeam, rt.OpMax+1, 1)
		}},
		{"mismatched operator", []int{0, 1}, func(c rt.Collectives, self int) (uint64, error) {
			return c.AllReduce("mo", rt.WorldTeam, rt.OpMin+rt.ReduceOp(self), 1)
		}},
		{"mismatched key", []int{0, 1}, func(c rt.Collectives, self int) (uint64, error) {
			return c.AllReduce(fmt.Sprint("mk", self), rt.WorldTeam, rt.OpSum, 1)
		}},
		{"non-member", []int{1}, func(c rt.Collectives, self int) (uint64, error) {
			return c.AllReduce("nm", rt.TeamOf(0), rt.OpSum, 1)
		}},
		{"team outside the cluster", []int{0}, func(c rt.Collectives, self int) (uint64, error) {
			return c.AllReduce("far", rt.TeamOf(0, 2), rt.OpSum, 1)
		}},
	} {
		_, errs := collAll(t, fabs, tc.callers, tc.call)
		for i, err := range errs {
			var ce *rt.CollectiveError
			if !errors.As(err, &ce) {
				t.Errorf("%s: node %d got %v, want *rt.CollectiveError", tc.name, tc.callers[i], err)
			}
		}
	}
	if v, err := fabs[0].Collectives().AllReduce("one", rt.TeamOf(0), rt.OpSum, 5); v != 5 || err != nil {
		t.Fatalf("team of one = %d, %v, want 5", v, err)
	}
	got := collOK(t, fabs, []int{0, 1}, func(c rt.Collectives, self int) (uint64, error) {
		return c.AllReduce("after", rt.WorldTeam, rt.OpSum, uint64(self+1))
	})
	if got[0] != 3 || got[1] != 3 {
		t.Fatalf("sum after the failures = %v, want 3 on both", got)
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
