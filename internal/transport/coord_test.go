package transport

import (
	"fmt"
	"testing"

	"gravel/internal/rt"
)

// TestCollectivesReclaimState pins the collectives' memory bound: a
// finished collective leaves no entry in any process's table of open
// collectives, so state does not grow with step count on long-running
// clusters. (The step vote's own bound is
// TestTallyRetainsNoFinishedVote.)
func TestCollectivesReclaimState(t *testing.T) {
	fabs := newTCPCluster(t, 3)
	defer closeAll(fabs)
	pair := rt.TeamOf(0, 2)
	for i := 0; i < 20; i++ {
		team, members := rt.WorldTeam, []int{0, 1, 2}
		if i%2 == 1 {
			team, members = pair, []int{0, 2}
		}
		collOK(t, fabs, members, func(c rt.Collectives, self int) (uint64, error) {
			return c.AllReduce(fmt.Sprintf("r:%d", i), team, rt.OpSum, uint64(self))
		})
	}
	for i, f := range fabs {
		f.colls.mu.Lock()
		open := len(f.colls.open)
		f.colls.mu.Unlock()
		if open != 0 {
			t.Fatalf("process %d retains %d collectives after every member finished them", i, open)
		}
	}
}
