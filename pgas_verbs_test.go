package gravel_test

import (
	"fmt"
	"net"
	"sync"
	"testing"

	"gravel"
	"gravel/internal/core"
	"gravel/internal/harness"
	"gravel/internal/rt"
	"gravel/internal/transport"
)

// TestDeviceCollectives drives rt.DeviceColl through the public system:
// one work-group per node runs a barrier, the three all-reduce ops and
// a broadcast back to back — five rounds, so the parity double-buffer
// is reused — and a disjoint sub-team folds concurrently with the
// world rounds on its own symmetric state.
func TestDeviceCollectives(t *testing.T) {
	sys := gravel.New(gravel.Config{Nodes: 4})
	defer sys.Close()
	sp := sys.Space()

	world := rt.NewDeviceColl(sp, 4, rt.WorldTeam)
	sub := rt.NewDeviceColl(sp, 4, rt.TeamOf(1, 3))
	out := sp.SymAlloc(8)

	sys.Step("devcoll", []int{1, 1, 1, 1}, 0, func(c rt.Ctx) {
		me := c.Node()
		v := uint64(10 * (me + 1)) // 10,20,30,40

		world.Barrier(c)
		sum := world.AllReduce(c, rt.OpSum, v)
		mn := world.AllReduce(c, rt.OpMin, v)
		mx := world.AllReduce(c, rt.OpMax, v)
		bc := world.Broadcast(c, 2, v)
		out.Store(out.SymIndex(me, 0), sum)
		out.Store(out.SymIndex(me, 1), mn)
		out.Store(out.SymIndex(me, 2), mx)
		out.Store(out.SymIndex(me, 3), bc)

		if sub.Team().Contains(me) {
			out.Store(out.SymIndex(me, 4), sub.AllReduce(c, rt.OpSum, v))
			out.Store(out.SymIndex(me, 5), sub.AllReduce(c, rt.OpMin, v))
		}
	})

	for me := 0; me < 4; me++ {
		got := [4]uint64{
			out.Load(out.SymIndex(me, 0)),
			out.Load(out.SymIndex(me, 1)),
			out.Load(out.SymIndex(me, 2)),
			out.Load(out.SymIndex(me, 3)),
		}
		if got != [4]uint64{100, 10, 40, 30} {
			t.Fatalf("node %d world results = %v, want [100 10 40 30]", me, got)
		}
	}
	for _, me := range []int{1, 3} {
		if s, m := out.Load(out.SymIndex(me, 4)), out.Load(out.SymIndex(me, 5)); s != 60 || m != 20 {
			t.Fatalf("node %d sub-team results = %d/%d, want 60/20", me, s, m)
		}
	}

	// A non-member touching the team collective is a typed panic.
	sys.Step("devcoll-bad", []int{1, 0, 0, 0}, 0, func(c rt.Ctx) {
		defer func() {
			if _, ok := recover().(*rt.CollectiveError); !ok {
				t.Error("non-member DeviceColl call did not panic with *rt.CollectiveError")
			}
		}()
		sub.AllReduce(c, rt.OpSum, 1)
	})
}

// TestDeviceCollRecDoubleMatchesLinear pins the recursive-doubling
// all-reduce schedule against the linear fan-out: at every power-of-two
// team size the two schedules must produce identical results for sum,
// min, max and broadcast across repeated rounds (so both parity banks
// are reused), and a non-power-of-two team must silently fall back to
// the linear schedule and still reduce correctly.
func TestDeviceCollRecDoubleMatchesLinear(t *testing.T) {
	for _, nodes := range []int{2, 4, 8} {
		t.Run(fmt.Sprintf("nodes=%d", nodes), func(t *testing.T) {
			sys := gravel.New(gravel.Config{Nodes: nodes})
			defer sys.Close()
			sp := sys.Space()

			lin := rt.NewDeviceColl(sp, nodes, rt.WorldTeam)
			rd := rt.NewDeviceCollSched(sp, nodes, rt.WorldTeam, rt.DCRecDouble)
			if rd.Schedule() != rt.DCRecDouble {
				t.Fatalf("power-of-two team got schedule %v, want recdouble", rd.Schedule())
			}
			const rounds = 3 // odd, so later rounds exercise both parities
			out := sp.SymAlloc(8)

			grid := make([]int, nodes)
			for i := range grid {
				grid[i] = 1
			}
			sys.Step("recdouble", grid, 0, func(c rt.Ctx) {
				me := c.Node()
				for r := 0; r < rounds; r++ {
					v := uint64(7*me + 3 + r)
					out.Store(out.SymIndex(me, 0), lin.AllReduce(c, rt.OpSum, v))
					out.Store(out.SymIndex(me, 1), rd.AllReduce(c, rt.OpSum, v))
					out.Store(out.SymIndex(me, 2), lin.AllReduce(c, rt.OpMin, v))
					out.Store(out.SymIndex(me, 3), rd.AllReduce(c, rt.OpMin, v))
					out.Store(out.SymIndex(me, 4), lin.AllReduce(c, rt.OpMax, v))
					out.Store(out.SymIndex(me, 5), rd.AllReduce(c, rt.OpMax, v))
					out.Store(out.SymIndex(me, 6), lin.Broadcast(c, nodes-1, v))
					out.Store(out.SymIndex(me, 7), rd.Broadcast(c, nodes-1, v))
				}
			})

			for me := 0; me < nodes; me++ {
				for k := 0; k < 8; k += 2 {
					l, r := out.Load(out.SymIndex(me, k)), out.Load(out.SymIndex(me, k+1))
					if l != r {
						t.Fatalf("node %d op %d: linear %d != recdouble %d", me, k/2, l, r)
					}
				}
				// The final round's sum is also checkable in closed form.
				want := uint64(nodes*(3+rounds-1)) + 7*uint64(nodes*(nodes-1)/2)
				if got := out.Load(out.SymIndex(me, 1)); got != want {
					t.Fatalf("node %d recdouble sum = %d, want %d", me, got, want)
				}
			}
		})
	}

	// Non-power-of-two team: requesting recursive doubling degrades to
	// the linear schedule, results unchanged.
	sys := gravel.New(gravel.Config{Nodes: 4})
	defer sys.Close()
	sub := rt.TeamOf(0, 1, 2)
	rd := rt.NewDeviceCollSched(sys.Space(), 4, sub, rt.DCRecDouble)
	if rd.Schedule() != rt.DCLinear {
		t.Fatalf("3-member team got schedule %v, want linear fallback", rd.Schedule())
	}
	out := sys.Space().SymAlloc(1)
	sys.Step("recdouble-fallback", []int{1, 1, 1, 0}, 0, func(c rt.Ctx) {
		me := c.Node()
		out.Store(out.SymIndex(me, 0), rd.AllReduce(c, rt.OpSum, uint64(me+1)))
	})
	for _, me := range []int{0, 1, 2} {
		if got := out.Load(out.SymIndex(me, 0)); got != 6 {
			t.Fatalf("fallback sum on node %d = %d, want 6", me, got)
		}
	}
}

// TestTCPClusterPGASAppsMatchSingle is the acceptance pin for the two
// PGAS-verb apps: a real multi-process-style TCP cluster — one
// gravel.New per node, joined through a coordinator, host collectives
// over tcp.Collectives() — must reproduce the single-process checksum
// bit for bit, with the serial network thread and with four resolver
// banks per node.
func TestTCPClusterPGASAppsMatchSingle(t *testing.T) {
	const n = 4
	p := harness.Params{Scale: 0.02}

	for _, name := range []string{"bfs-dir", "histogram"} {
		a := harness.MustApp(name)
		ref := gravel.New(gravel.Config{Nodes: n})
		want := a.Run(ref, rt.Whole(), p)
		ref.Close()
		if want.Err != nil {
			t.Fatalf("%s: single-process run failed: %v", name, want.Err)
		}
		if want.Check == 0 {
			t.Fatalf("%s: single-process check is zero", name)
		}

		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", name, shards), func(t *testing.T) {
				ln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				coord := transport.NewCoordinator(n)
				go coord.Serve(ln)
				defer ln.Close()

				locals := make([]uint64, n)
				totals := make([]uint64, n)
				errs := make([]error, n)
				var wg sync.WaitGroup
				for i := 0; i < n; i++ {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						sys := gravel.New(gravel.Config{
							Nodes:          n,
							Transport:      "tcp",
							ResolverShards: shards,
							TransportOpts: gravel.TransportOptions{
								Self:  i,
								Coord: ln.Addr().String(),
							},
						})
						defer sys.Close()
						tcp := sys.(interface{ Fabric() core.Fabric }).Fabric().(*transport.TCP)
						shard := a.Run(sys, rt.Where{Node: i, Coll: tcp.Collectives()}, p)
						if shard.Err != nil {
							errs[i] = shard.Err
							return
						}
						locals[i] = shard.Check
						totals[i], errs[i] = tcp.Collectives().AllReduce(name+":check", rt.WorldTeam, rt.OpSum, shard.Check)
					}(i)
				}
				wg.Wait()

				var sum uint64
				for i := 0; i < n; i++ {
					if errs[i] != nil {
						t.Fatalf("node %d: %v", i, errs[i])
					}
					if totals[i] != totals[0] {
						t.Fatalf("nodes disagree on the reduced check: %d vs %d", totals[i], totals[0])
					}
					sum += locals[i]
				}
				if sum != want.Check || totals[0] != want.Check {
					t.Fatalf("%s TCP cluster check = %d (reduced %d), single-process = %d",
						name, sum, totals[0], want.Check)
				}
			})
		}
	}
}
