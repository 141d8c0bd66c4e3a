package gravel_test

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"gravel"
	"gravel/internal/core"
	"gravel/internal/models"
	"gravel/internal/pgas"
	"gravel/internal/rt"
)

// startHostedCluster brings up an n-process in-process TCP cluster of
// model, one node per process, closed at cleanup.
func startHostedCluster(t *testing.T, n int, model string) []nodeRun {
	t.Helper()
	_, addr, stop := startChaosCoord(t, n)
	t.Cleanup(stop)
	runs := make([]nodeRun, n)
	for i := range runs {
		runs[i].model = model
	}
	var wg sync.WaitGroup
	for i := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runs[i].start(i, n, addr, nil, gravel.TransportOptions{})
		}()
	}
	wg.Wait()
	t.Cleanup(func() { closeRuns(runs) })
	for i := range runs {
		if runs[i].err != nil {
			t.Fatalf("node %d failed to start: %v", i, runs[i].err)
		}
	}
	return runs
}

// stepAll runs one Step of k on every process side by side, each
// launching grid lanes on its own node, and fails on any unwound error.
func stepAll(t *testing.T, runs []nodeRun, grid int, k func(self int) rt.Kernel) {
	t.Helper()
	var wg sync.WaitGroup
	for i := range runs {
		wg.Add(1)
		go func(r *nodeRun) {
			defer wg.Done()
			defer r.recoverErr()
			g := make([]int, len(runs))
			g[i] = grid
			r.sys.Step("hosted", g, 0, k(i))
		}(&runs[i])
	}
	wg.Wait()
	for i := range runs {
		if runs[i].err != nil {
			t.Fatalf("node %d's step: %v", i, runs[i].err)
		}
	}
}

// panicked returns what f panicked, as an error.
func panicked(f func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if err, _ = r.(error); err == nil {
				err = fmt.Errorf("panicked a non-error %v", r)
			}
		}
	}()
	f()
	return nil
}

// TestProcessHoldsOnlyHostedNodes: a process of a multi-process cluster
// builds device-side parts, and holds array cells, for its own node
// only, and a queue only on the queue path. Another process's node is
// its ledger alone; its windows are empty, a host access to one of its
// cells panics *pgas.NotHostedError, and Sum covers exactly the hosted
// shard.
func TestProcessHoldsOnlyHostedNodes(t *testing.T) {
	const cells = 256
	for _, procs := range []int{2, 4} {
		for _, model := range []string{"gravel", "gravel-archive"} {
			t.Run(fmt.Sprintf("%s/procs=%d", model, procs), func(t *testing.T) {
				runs := startHostedCluster(t, procs, model)
				type arrays struct{ block, ranges, sym *pgas.Array }
				arrs := make([]arrays, procs)
				bounds := make([]int, procs+1)
				for i := range procs {
					bounds[i+1] = bounds[i] + 8*(i+1) // unequal ranges
				}
				for i := range runs {
					sp := runs[i].sys.Space()
					arrs[i] = arrays{sp.Alloc(cells), sp.AllocRanges(bounds), sp.SymAlloc(4)}
				}
				// Every node increments every cell of the block array once.
				stepAll(t, runs, cells, func(self int) rt.Kernel {
					return func(c rt.Ctx) {
						g := c.Group()
						idx, one := make([]uint64, g.Size), make([]uint64, g.Size)
						for l := range idx {
							idx[l], one[l] = uint64(g.GlobalID(l)), 1
						}
						c.Inc(arrs[self].block, idx, one, nil)
					}
				})
				for self, r := range runs {
					cl := r.sys.(interface{ Node(int) *core.Node })
					sp := r.sys.Space()
					a := arrs[self]
					for n := range procs {
						node := cl.Node(n)
						if node.ID != n || node.Clocks == nil {
							t.Errorf("process %d: node %d lost its ID or ledger", self, n)
						}
						hosted := n == self
						queued := hosted && model == "gravel" // the archive row's kernels write no queue
						if has := [3]bool{node.GPU != nil, node.PCQ != nil, node.Agg != nil}; has != [3]bool{hosted, queued, hosted} {
							t.Errorf("process %d: node %d has GPU, PCQ, Agg %v; want %v", self, n, has, [3]bool{hosted, queued, hosted})
						}
						if sp.Hosts(n) != hosted {
							t.Errorf("process %d: Space.Hosts(%d) = %v, want %v", self, n, sp.Hosts(n), hosted)
						}
						for name, arr := range map[string]*pgas.Array{"Alloc": a.block, "AllocRanges": a.ranges, "SymAlloc": a.sym} {
							lo, hi := arr.LocalRange(n)
							want := 0
							if hosted {
								want = hi - lo
							}
							if got := len(arr.Local(n)); got != want || hi <= lo {
								t.Errorf("process %d: %s window of node %d holds %d cells of [%d,%d), want %d", self, name, n, got, lo, hi, want)
							}
							if hosted {
								continue
							}
							err := panicked(func() { arr.Load(uint64(hi - 1)) })
							var nh *pgas.NotHostedError
							if !errors.As(err, &nh) || nh.Array != arr.ID() || nh.Index != uint64(hi-1) || nh.Owner != n {
								t.Errorf("process %d: loading %s cell %d of node %d: %v, want a *pgas.NotHostedError naming it", self, name, hi-1, n, err)
							}
						}
					}
					lo, hi := a.block.LocalRange(self)
					if got, want := a.block.Sum(), uint64(procs*(hi-lo)); got != want {
						t.Errorf("process %d: Sum = %d, want %d (%d increments on each of its %d cells)", self, got, want, procs, hi-lo)
					}
					for i := lo; i < hi; i++ {
						if v := a.block.Load(uint64(i)); v != uint64(procs) {
							t.Fatalf("process %d: cell %d = %d, want %d", self, i, v, procs)
						}
					}
				}
			})
		}
	}
}

// TestUnhostedNodeCallsPanicDestError: HostAM from, and a launch on, a
// node another process hosts panic *core.DestError at the call, before
// anything is staged or launched, and the cluster then steps as before.
func TestUnhostedNodeCallsPanicDestError(t *testing.T) {
	runs := startHostedCluster(t, 2, "gravel")
	var got [2]atomic.Uint64
	hs := make([]uint8, 2)
	for i := range runs {
		hs[i] = runs[i].sys.RegisterAM(func(node int, a, _ uint64) { got[node].Add(a) })
	}
	for self, r := range runs {
		other := 1 - self
		err := panicked(func() { r.sys.HostAM(other, hs[self], self, 1, 0) })
		var de *core.DestError
		if !errors.As(err, &de) || de.Verb != "HostAM" || de.Node != other || de.Dest != self || de.Nodes != 2 {
			t.Errorf("process %d: HostAM from node %d: %v, want a *core.DestError naming it", self, other, err)
		}
		grid := make([]int, 2)
		grid[other] = 1
		err = panicked(func() { r.sys.Step("bad", grid, 0, func(rt.Ctx) {}) })
		if !errors.As(err, &de) || de.Verb != "Launch" || de.Node != other || de.Nodes != 2 {
			t.Errorf("process %d: launch on node %d: %v, want a *core.DestError naming it", self, other, err)
		}
	}
	// A good step: each node sends one AM to the other from its host.
	for self, r := range runs {
		r.sys.HostAM(self, hs[self], 1-self, uint64(10+self), 0)
	}
	stepAll(t, runs, 0, func(int) rt.Kernel { return func(rt.Ctx) {} })
	if a, b := got[0].Load(), got[1].Load(); a != 11 || b != 10 {
		t.Errorf("AM sums after the good step = %d, %d; want 11, 10", a, b)
	}
}

// TestNodeBuildsOnlyItsSendPath: a node builds the producer/consumer
// queue only where its model sends through it (gravel, msg-per-lane,
// cpu-only, and coalesced+agg, whose lists fill its slots). The archive
// row appends past it and the three other rival rows own their
// buffering, so they have none; their aggregators still stage, flush
// and pump HostAM follow-ups. One GUPS step whose every
// work-group sends a request, each answered by a HostAM from its
// handler, lands every update and every reply on every row.
func TestNodeBuildsOnlyItsSendPath(t *testing.T) {
	const nodes, perNode = 4, 512
	queued := map[string]bool{"gravel": true, "msg-per-lane": true, "cpu-only": true, "coalesced+agg": true}
	for _, m := range models.Table {
		t.Run(m.Name, func(t *testing.T) {
			sys := gravel.New(gravel.Config{Model: m.Name, Nodes: nodes})
			defer sys.Close()
			cl := sys.(interface{ Node(int) *core.Node })
			for n := range nodes {
				if node := cl.Node(n); (node.PCQ != nil) != queued[m.Name] || node.Agg == nil {
					t.Errorf("node %d has PCQ %v, Agg %v; want a PCQ %v and an Agg", n, node.PCQ != nil, node.Agg != nil, queued[m.Name])
				}
			}
			sp := sys.Space()
			tab, replies := sp.Alloc(nodes*perNode), sp.Alloc(nodes)
			reply := sys.RegisterAM(func(node int, _, _ uint64) { replies.Add(uint64(node), 1) })
			req := sys.RegisterAM(func(node int, from, _ uint64) { sys.HostAM(node, reply, int(from), 0, 0) })
			grid := make([]int, nodes)
			for i := range grid {
				grid[i] = perNode
			}
			var wgs atomic.Int64
			sys.Step("gups+reply", grid, 0, func(c rt.Ctx) {
				g := c.Group()
				idx, one, dst := make([]uint64, g.Size), make([]uint64, g.Size), make([]int, g.Size)
				for l := range idx {
					idx[l], one[l] = uint64(g.GlobalID(l)*7919+c.Node()*perNode)%uint64(tab.Len()), 1
					dst[l] = (c.Node() + 1) % nodes
				}
				c.Inc(tab, idx, one, nil)
				lead, from := make([]bool, g.Size), make([]uint64, g.Size)
				lead[0], from[0] = true, uint64(c.Node())
				c.AM(req, dst, from, from, lead)
				wgs.Add(1)
			})
			if got, want := tab.Sum(), uint64(nodes*perNode); got != want {
				t.Errorf("table sums to %d, want %d", got, want)
			}
			if got, want := replies.Sum(), uint64(wgs.Load()); got != want || want == 0 {
				t.Errorf("%d HostAM replies landed, want one per work-group (%d)", got, want)
			}
		})
	}
}

// TestMisusePanicsConfigError: a Step on a grid that is not one entry
// per node, on every model, and the 257th RegisterAM panic a
// *ConfigError naming the call, at the call; the system runs on.
func TestMisusePanicsConfigError(t *testing.T) {
	const nodes = 2
	for _, m := range models.Table {
		t.Run(m.Name, func(t *testing.T) {
			sys := gravel.New(gravel.Config{Model: m.Name, Nodes: nodes})
			defer sys.Close()
			var ce *gravel.ConfigError
			for _, n := range []int{nodes - 1, nodes + 1} {
				err := panicked(func() { sys.Step("bad-grid", make([]int, n), 0, func(rt.Ctx) {}) })
				if !errors.As(err, &ce) || ce.Field != "grid" {
					t.Errorf("Step on a %d-entry grid: %v, want a *ConfigError for grid", n, err)
				}
			}
			for range 256 {
				sys.RegisterAM(func(int, uint64, uint64) {})
			}
			err := panicked(func() { sys.RegisterAM(func(int, uint64, uint64) {}) })
			if !errors.As(err, &ce) || ce.Field != "RegisterAM" {
				t.Errorf("257th RegisterAM: %v, want a *ConfigError for RegisterAM", err)
			}
			arr := sys.Space().Alloc(nodes)
			sys.Step("good", []int{64, 64}, 0, func(c rt.Ctx) {
				g := c.Group()
				idx, one := make([]uint64, g.Size), make([]uint64, g.Size)
				for l := range idx {
					idx[l], one[l] = uint64(g.GlobalID(l)%nodes), 1
				}
				c.Inc(arr, idx, one, nil)
			})
			if got := arr.Sum(); got != 2*64 {
				t.Errorf("after the misuses a step summed %d, want %d", got, 2*64)
			}
		})
	}
}
