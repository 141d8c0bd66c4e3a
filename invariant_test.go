package gravel_test

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"gravel"
	"gravel/internal/harness"
	"gravel/internal/noderun"
	"gravel/internal/rt"
)

// The invariant table's axes. Where a cell runs follows from its fabric
// and is not an axis: in-process fabrics run the whole cluster
// (rt.Whole()); tcp runs each node's share in its own worker (rt.Where{Node:
// i}) through the production launcher, which reduces and cross-checks them.
var (
	invApps    = harness.Apps()
	invModels  = gravel.Models()
	invFabrics = []string{"chan", "loopback", "tcp"}
	invShards  = []int{1, 4}
	invNodes   = []int{2, 3, 4}
	invSizes   = invCell{len(invApps), len(invModels), len(invFabrics), len(invShards), len(invNodes)}
	invParams  = harness.Params{Scale: 0.02}
)

// invCell is an index into each axis: app, model, fabric, shards, nodes.
type invCell [5]int

func (c invCell) String() string {
	return fmt.Sprintf("%s/%s/%s/shards=%d/nodes=%d",
		invApps[c[0]].Name, invModels[c[1]], invFabrics[c[2]], invShards[c[3]], invNodes[c[4]])
}

// pinnedCell is a cell a hand-written equivalence test ran before this
// table replaced it. The covering array starts from the pinned cells,
// and each still runs under that test's name and subtest name.
type pinnedCell struct {
	name string // Test or Test/subtest
	c    invCell
}

func pinnedCells() []pinnedCell {
	cell := func(name, app, model, fabric string, shards, nodes int) pinnedCell {
		return pinnedCell{name, invCell{slices.IndexFunc(invApps, func(a *harness.App) bool { return a.Name == app }),
			slices.Index(invModels, model), slices.Index(invFabrics, fabric),
			slices.Index(invShards, shards), slices.Index(invNodes, nodes)}}
	}
	var out []pinnedCell
	for _, m := range invModels {
		out = append(out, cell("TestEveryModelMatchesOverLoopback/"+m, "gups", m, "loopback", 1, 3))
	}
	for _, shards := range invShards {
		s := fmt.Sprintf("shards=%d", shards)
		out = append(out, cell("TestLoopbackMatchesChan/"+s, "gups", "gravel", "loopback", shards, 4),
			cell("TestTCPClusterMatchesChan/"+s, "gups", "gravel", "tcp", shards, 4),
			cell("TestTCPClusterArchiveMatchesSingle/"+s, "gups", "gravel-archive", "tcp", shards, 3),
			cell("TestTCPClusterPGASAppsMatchSingle/bfs-dir/"+s, "bfs-dir", "gravel", "tcp", shards, 4),
			cell("TestTCPClusterPGASAppsMatchSingle/histogram/"+s, "histogram", "gravel", "tcp", shards, 4))
	}
	return append(out, cell("TestTCPClusterCoprocessorMatchesSingle", "gups", "coprocessor", "tcp", 1, 3))
}

// pairs calls f with every (axis, axis, value, value) pair c covers.
func (c invCell) pairs(f func(p [4]int)) {
	for i := range c {
		for j := i + 1; j < len(c); j++ {
			f([4]int{i, j, c[i], c[j]})
		}
	}
}

// coveringArray extends the pinned cells greedily and deterministically
// to a pairwise covering array: each added cell is the first of the
// full product that covers the most pairs still uncovered.
func coveringArray(pinned []pinnedCell) []invCell {
	var out []invCell
	covered := map[[4]int]bool{}
	add := func(c invCell) {
		out = append(out, c)
		c.pairs(func(p [4]int) { covered[p] = true })
	}
	for _, p := range pinned {
		add(p.c)
	}
	product := invSizes[0] * invSizes[1] * invSizes[2] * invSizes[3] * invSizes[4]
	for {
		best, gain := invCell{}, 0
		for k := 0; k < product; k++ {
			c, rest := invCell{}, k
			for a := range c {
				c[a], rest = rest%invSizes[a], rest/invSizes[a]
			}
			g := 0
			c.pairs(func(p [4]int) {
				if !covered[p] {
					g++
				}
			})
			if g > gain {
				best, gain = c, g
			}
		}
		if gain == 0 {
			return out
		}
		add(best)
	}
}

// runCell runs a (reference) cell within a deadline; pkts is its wire packets.
func runCell(t *testing.T, a *harness.App, model, fabric string, shards, nodes int) (r harness.Result, pkts int64) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		if fabric == "tcp" {
			var l noderun.Launcher
			res, err := l.Run(ctx, noderun.Spec{App: a.Name, Model: model, Nodes: nodes,
				Fabric: noderun.FabricTCP, Params: invParams, ResolverShards: shards})
			if r.Err = err; err == nil {
				r.Check, r.Ns, pkts = res.Check, res.Ns, res.WirePackets
			}
			return
		}
		sys, err := gravel.NewChecked(gravel.Config{Model: model, Nodes: nodes, Transport: fabric, ResolverShards: shards})
		if r.Err = err; err != nil {
			return
		}
		defer sys.Close()
		r = a.Run(sys, rt.Whole(), invParams)
		for _, d := range sys.Stats().Transport.PerDest {
			pkts += d.Packets
		}
	}()
	select {
	case <-done:
	case <-ctx.Done():
		t.Fatal("still running after 60s")
	}
	return r, pkts
}

// checkCell runs cell c and its app's reference cell (chan, gravel, one
// shard, the same node count; run once per refs key) and compares them.
func checkCell(t *testing.T, c invCell, refs map[[2]int]uint64) {
	a, fabric, nodes := invApps[c[0]], invFabrics[c[2]], invNodes[c[4]]
	key := [2]int{c[0], c[4]}
	ref, ok := refs[key]
	if !ok {
		r, _ := runCell(t, a, gravel.ModelGravel, "chan", 1, nodes)
		if r.Err == nil && a.VerifyTotal != nil {
			r.Err = a.VerifyTotal(r.Check, invParams, nodes)
		}
		if r.Err != nil || r.Ns <= 0 {
			t.Fatalf("reference cell: err %v, %g ns", r.Err, r.Ns)
		}
		ref, refs[key] = r.Check, r.Check
	}
	r, pkts := runCell(t, a, invModels[c[1]], fabric, invShards[c[3]], nodes)
	if r.Err != nil || r.Ns <= 0 {
		t.Fatalf("err %v, %g ns", r.Err, r.Ns)
	}
	if r.Check != ref {
		t.Errorf("check %d, reference cell %d", r.Check, ref)
	}
	if fabric != "chan" && pkts == 0 {
		t.Errorf("no wire packets: the %s framing path was not exercised", fabric)
	}
}

// TestInvariantTable is the backbone invariant: no axis but the app and
// the node count may change an app's answer. It runs a pairwise covering
// array of every app × model × fabric × resolver shard count × node
// count; each cell must equal its app's reference cell (chan, gravel,
// one shard, the same node count), and each reference cell must pass the
// app's sequential oracle (App.VerifyTotal) where it has one. The pinned
// cells count toward the coverage but run in the tests named after them
// (runPinned); TestTransportsRegistered checks the fabric axis.
func TestInvariantTable(t *testing.T) {
	pinned := pinnedCells()
	cells := coveringArray(pinned)
	for i, p := range pinned {
		if cells[i] != p.c {
			t.Fatalf("pinned cell %s (%s) missing", p.c, p.name)
		}
	}
	for i := range invSizes {
		for j := i + 1; j < len(invSizes); j++ {
			for v := 0; v < invSizes[i]*invSizes[j]; v++ {
				vi, vj := v%invSizes[i], v/invSizes[i]
				if !slices.ContainsFunc(cells, func(c invCell) bool { return c[i] == vi && c[j] == vj }) {
					t.Errorf("axes %d, %d: values %d, %d in no cell", i, j, vi, vj)
				}
			}
		}
	}
	t.Logf("%d cells, %d pinned: %v", len(cells), len(pinned), cells)

	refs := map[[2]int]uint64{} // (app, nodes) -> the reference cell's check
	for _, c := range cells[len(pinned):] {
		t.Run(c.String(), func(t *testing.T) { checkCell(t, c, refs) })
	}
}

// runPinned runs the pinned cells named after the calling test.
func runPinned(t *testing.T) {
	refs := map[[2]int]uint64{}
	for _, p := range pinnedCells() {
		test, sub, _ := strings.Cut(p.name, "/")
		switch {
		case test != t.Name():
		case sub == "":
			checkCell(t, p.c, refs)
		default:
			t.Run(sub, func(t *testing.T) { checkCell(t, p.c, refs) })
		}
	}
}

func TestEveryModelMatchesOverLoopback(t *testing.T)      { runPinned(t) }
func TestLoopbackMatchesChan(t *testing.T)                { runPinned(t) }
func TestTCPClusterMatchesChan(t *testing.T)              { runPinned(t) }
func TestTCPClusterCoprocessorMatchesSingle(t *testing.T) { runPinned(t) }
func TestTCPClusterArchiveMatchesSingle(t *testing.T)     { runPinned(t) }
func TestTCPClusterPGASAppsMatchSingle(t *testing.T)      { runPinned(t) }

// TestTransportsRegistered checks the table's fabric axis against the
// transport registry, so a new transport cannot escape the table.
func TestTransportsRegistered(t *testing.T) {
	if have := gravel.Transports(); !slices.Equal(slices.Sorted(slices.Values(invFabrics)), have) {
		t.Fatalf("fabric axis %v, registered transports %v", invFabrics, have)
	}
}
