package transport

import (
	"errors"
	"sync"
	"testing"

	"gravel/internal/fabric"
	"gravel/internal/rt"
	"gravel/internal/timemodel"
)

// TestCoordinatorTypedReductions drives reduceLocked directly: min and
// max folds, explicit contribution counts (teams), and defaults (sum,
// count 0 = all nodes) must all complete and reclaim their entries; an
// unknown operator, or one that differs from the key's first, is an
// error that leaves the key's fold alone.
func TestCoordinatorTypedReductions(t *testing.T) {
	c := NewCoordinator(4)
	reduceErr := func(node int, key string, val uint64, rop rt.ReduceOp, count int) (uint64, bool, error) {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.reduceLocked(node, key, val, rop, count)
	}
	reduce := func(node int, key string, val uint64, rop rt.ReduceOp, count int) (uint64, bool) {
		tot, ready, err := reduceErr(node, key, val, rop, count)
		if err != nil {
			t.Fatalf("reduce(%d, %q, %v): %v", node, key, rop, err)
		}
		return tot, ready
	}

	// Min over an explicit 2-contribution team: completes without the
	// other two nodes ever showing up.
	if _, ready := reduce(1, "m", 30, rt.OpMin, 2); ready {
		t.Fatal("team reduce ready with one contribution")
	}
	if tot, ready := reduce(3, "m", 20, rt.OpMin, 2); !ready || tot != 20 {
		t.Fatalf("team min = %d ready=%v, want 20 true", tot, ready)
	}
	if tot, ready := reduce(1, "m", 30, rt.OpMin, 2); !ready || tot != 20 {
		t.Fatalf("poll after completion = %d ready=%v", tot, ready)
	}

	// Max over all nodes via the legacy default count.
	vals := []uint64{5, 40, 12, 7}
	for n := 0; n < 3; n++ {
		if _, ready := reduce(n, "x", vals[n], rt.OpMax, 0); ready {
			t.Fatalf("world max ready after %d contributions", n+1)
		}
	}
	if tot, ready := reduce(3, "x", vals[3], rt.OpMax, 0); !ready || tot != 40 {
		t.Fatalf("world max = %d ready=%v, want 40 true", tot, ready)
	}
	for n := 0; n < 3; n++ {
		if tot, ready := reduce(n, "x", vals[n], rt.OpMax, 0); !ready || tot != 40 {
			t.Fatalf("node %d collect = %d ready=%v", n, tot, ready)
		}
	}

	// A count above the cluster size is clamped to the cluster (defensive
	// against a bad client), and all entries are reclaimed.
	if _, ready := reduce(0, "c", 1, rt.OpSum, 99); ready {
		t.Fatal("clamped count completed early")
	}
	for n := 1; n < 3; n++ {
		reduce(n, "c", 1, rt.OpSum, 99)
	}
	if tot, ready := reduce(3, "c", 1, rt.OpSum, 99); !ready || tot != 4 {
		t.Fatalf("clamped count: final contributor got %d ready=%v", tot, ready)
	}
	for n := 0; n < 3; n++ { // node 3 collected when it completed the fold
		if tot, ready := reduce(n, "c", 1, rt.OpSum, 99); !ready || tot != 4 {
			t.Fatalf("clamped count: node %d got %d ready=%v", n, tot, ready)
		}
	}
	// An unknown operator is refused before it opens a key.
	if _, _, err := reduceErr(0, "u", 1, rt.OpMax+1, 2); err == nil {
		t.Fatal("unknown operator accepted")
	}

	// A second operator on a key is refused, and the key folds under
	// its first contributor's operator once the rest arrive.
	reduce(0, "mm", 9, rt.OpMin, 2)
	if _, _, err := reduceErr(1, "mm", 4, rt.OpMax, 2); err == nil {
		t.Fatal("max accepted on a min key")
	}
	if tot, ready := reduce(1, "mm", 4, rt.OpMin, 2); !ready || tot != 4 {
		t.Fatalf("min after a refused max = %d ready=%v, want 4 true", tot, ready)
	}
	reduce(0, "mm", 9, rt.OpMin, 2)

	c.mu.Lock()
	nr := len(c.reduces)
	c.mu.Unlock()
	if nr != 0 {
		t.Fatalf("%d reduce entries retained", nr)
	}
}

// collAll runs fn concurrently as every listed member's collective call
// and returns the per-member results.
func collAll(t *testing.T, fabs []*TCP, members []int, fn func(c rt.Collectives, self int) (uint64, error)) []uint64 {
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
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("member %d: %v", members[i], err)
		}
	}
	return out
}

// TestTCPCollectives runs the full Collectives surface over a real
// 4-process coordinator cluster: world and team all-reduces under every
// op, broadcast, and barrier, with non-members running a disjoint
// collective concurrently (teams must neither block nor be blocked).
func TestTCPCollectives(t *testing.T) {
	fabs := newTCPCluster(t, 4)
	defer closeAll(fabs)
	world := []int{0, 1, 2, 3}

	// World sum: must agree with the legacy Reduce path bit-for-bit —
	// same key, same coordinator entry — so issue it through the new
	// surface and check the value the old surface would have produced.
	vals := []uint64{10, 20, 30, 40}
	got := collAll(t, fabs, world, func(c rt.Collectives, self int) (uint64, error) {
		return c.AllReduce("s", rt.WorldTeam, rt.OpSum, vals[self])
	})
	for i, v := range got {
		if v != 100 {
			t.Fatalf("world sum at %d = %d, want 100", i, v)
		}
	}

	// Min and max.
	got = collAll(t, fabs, world, func(c rt.Collectives, self int) (uint64, error) {
		return c.AllReduce("mn", rt.WorldTeam, rt.OpMin, vals[self])
	})
	if got[2] != 10 {
		t.Fatalf("world min = %d, want 10", got[2])
	}
	got = collAll(t, fabs, world, func(c rt.Collectives, self int) (uint64, error) {
		return c.AllReduce("mx", rt.WorldTeam, rt.OpMax, vals[self])
	})
	if got[1] != 40 {
		t.Fatalf("world max = %d, want 40", got[1])
	}

	// Two disjoint teams run different collectives concurrently under
	// the same key: the team tag keeps their coordinator entries apart.
	low, high := rt.TeamOf(0, 1), rt.TeamOf(2, 3)
	var wg sync.WaitGroup
	var lowGot, highGot []uint64
	wg.Add(2)
	go func() {
		defer wg.Done()
		lowGot = collAll(t, fabs, []int{0, 1}, func(c rt.Collectives, self int) (uint64, error) {
			return c.AllReduce("t", low, rt.OpSum, vals[self])
		})
	}()
	go func() {
		defer wg.Done()
		highGot = collAll(t, fabs, []int{2, 3}, func(c rt.Collectives, self int) (uint64, error) {
			return c.AllReduce("t", high, rt.OpMin, vals[self])
		})
	}()
	wg.Wait()
	if lowGot[0] != 30 || lowGot[1] != 30 {
		t.Fatalf("low-team sum = %v, want 30", lowGot)
	}
	if highGot[0] != 30 || highGot[1] != 30 {
		t.Fatalf("high-team min = %v, want 30", highGot)
	}

	// Broadcast: root's value reaches every member, root's only.
	got = collAll(t, fabs, world, func(c rt.Collectives, self int) (uint64, error) {
		return c.Broadcast("b", rt.WorldTeam, 2, vals[self])
	})
	for i, v := range got {
		if v != 30 {
			t.Fatalf("broadcast at %d = %d, want root's 30", i, v)
		}
	}

	// Team barrier.
	collAll(t, fabs, []int{0, 1}, func(c rt.Collectives, self int) (uint64, error) {
		return 0, c.Barrier("bar", low)
	})

	// Non-members get a typed error and never touch the coordinator.
	var ce *rt.CollectiveError
	if _, err := fabs[3].Collectives().AllReduce("t2", low, rt.OpSum, 1); !errors.As(err, &ce) {
		t.Fatalf("non-member allreduce err = %v, want *CollectiveError", err)
	}
	if _, err := fabs[0].Collectives().Broadcast("b2", low, 3, 1); !errors.As(err, &ce) {
		t.Fatalf("non-member root err = %v, want *CollectiveError", err)
	}
	if err := fabs[2].Collectives().Barrier("bar2", low); !errors.As(err, &ce) {
		t.Fatalf("non-member barrier err = %v, want *CollectiveError", err)
	}
}

// TestTCPCollectivesLegacyInterop pins that TCP.Reduce is the world-team
// sum: an AllReduce through the collectives surface and a Reduce call
// under the same key must rendezvous on the same coordinator entry.
func TestTCPCollectivesLegacyInterop(t *testing.T) {
	fabs := newTCPCluster(t, 2)
	defer closeAll(fabs)

	var tot0, tot1 uint64
	var err0, err1 error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		tot0, err0 = fabs[0].Collectives().AllReduce("mix", rt.WorldTeam, rt.OpSum, 3)
	}()
	go func() {
		defer wg.Done()
		tot1, err1 = fabs[1].Reduce("mix", 4) // same key
	}()
	wg.Wait()
	if err0 != nil || err1 != nil {
		t.Fatalf("mixed reduce: %v / %v", err0, err1)
	}
	if tot0 != 7 || tot1 != 7 {
		t.Fatalf("mixed reduce totals %d / %d, want 7", tot0, tot1)
	}
}

// TestStandaloneCollectivesIdentity: a coordinator-less single-process
// fabric degrades every collective to the identity, like TCP.Reduce.
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
	if v, err := c.Broadcast("k", rt.WorldTeam, 0, 6); v != 6 || err != nil {
		t.Fatalf("standalone broadcast = %d, %v", v, err)
	}
	if err := c.Barrier("k", rt.WorldTeam); err != nil {
		t.Fatalf("standalone barrier: %v", err)
	}
}
