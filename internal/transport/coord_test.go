package transport

import (
	"testing"

	"gravel/internal/rt"
)

// TestCoordinatorReclaimsCollectiveState pins the coordinator's memory
// bound: per-step reduce entries must be deleted once every node has
// collected the total, so state does not grow with step count on
// long-running clusters. (The step vote's own bound is
// TestTallyRetainsNoFinishedVote.)
func TestCoordinatorReclaimsCollectiveState(t *testing.T) {
	c := NewCoordinator(2)

	// Reduce is a polled collective: nodes contribute, then poll until
	// everyone has; the entry is reclaimed once all have collected.
	reduce := func(node int, key string, val uint64) (uint64, bool) {
		c.mu.Lock()
		defer c.mu.Unlock()
		tot, ready, _ := c.reduceLocked(node, key, val, rt.OpSum, 0)
		return tot, ready
	}
	if _, ready := reduce(0, "sum:1", 1); ready {
		t.Fatal("reduce ready with one node missing")
	}
	tot1, ready := reduce(1, "sum:1", 2)
	if !ready || tot1 != 3 {
		t.Fatalf("reduce(1) = %d ready=%v, want 3 true", tot1, ready)
	}
	tot0, ready := reduce(0, "sum:1", 1) // node 0 polls again and collects
	if !ready || tot0 != 3 {
		t.Fatalf("reduce(0) poll = %d ready=%v, want 3 true", tot0, ready)
	}
	c.mu.Lock()
	nr := len(c.reduces)
	c.mu.Unlock()
	if nr != 0 {
		t.Fatalf("%d reduce entries retained after every node collected the total", nr)
	}
}
