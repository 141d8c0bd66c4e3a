package core

import (
	"fmt"
	"testing"

	"gravel/internal/pgas"
	"gravel/internal/rt"
	"gravel/internal/timemodel"
)

// TestTinyPCQBackpressure: a producer/consumer queue with almost no
// slots forces work-groups to stall in Reserve while the aggregator
// drains — the system must make progress, not deadlock.
func TestTinyPCQBackpressure(t *testing.T) {
	p := timemodel.Default()
	p.PCQBytes = 1 // rounds up to the 4-slot minimum
	cl := New(Config{Nodes: 2, Params: p})
	defer cl.Close()
	arr := cl.Space().Alloc(256)
	cl.Step("inc", []int{8192, 8192}, 0, func(c rt.Ctx) {
		g := c.Group()
		idx := make([]uint64, g.Size)
		one := make([]uint64, g.Size)
		g.Vector(func(l int) {
			idx[l] = uint64(g.GlobalID(l) % 256)
			one[l] = 1
		})
		c.Inc(arr, idx, one, nil)
	})
	if got := arr.Sum(); got != 16384 {
		t.Fatalf("sum = %d, want 16384", got)
	}
}

// TestTinyPerNodeQueues: 1-message per-node queues make every message
// its own packet; inbox backpressure must throttle, not deadlock.
func TestTinyPerNodeQueues(t *testing.T) {
	p := timemodel.Default()
	p.PerNodeQueueBytes = 1 // one message per queue
	p.QueuesPerDest = 1     // minimal inbox depth
	cl := New(Config{Nodes: 3, Params: p})
	defer cl.Close()
	arr := cl.Space().Alloc(128)
	cl.Step("inc", []int{2048, 2048, 2048}, 0, func(c rt.Ctx) {
		g := c.Group()
		idx := make([]uint64, g.Size)
		one := make([]uint64, g.Size)
		g.Vector(func(l int) {
			idx[l] = uint64((c.Node()*31 + g.GlobalID(l)) % 128)
			one[l] = 1
		})
		c.Inc(arr, idx, one, nil)
	})
	if got := arr.Sum(); got != 3*2048 {
		t.Fatalf("sum = %d", got)
	}
	if pkts := cl.Stats().Transport.WirePackets; pkts < 1000 {
		t.Fatalf("expected a packet storm, got %d packets", pkts)
	}
}

// TestManySmallSteps: repeated tiny supersteps exercise the quiescence
// protocol's steady-state overhead.
func TestManySmallSteps(t *testing.T) {
	cl := New(Config{Nodes: 2})
	defer cl.Close()
	arr := cl.Space().Alloc(64)
	for i := 0; i < 200; i++ {
		cl.Step("tiny", []int{64, 64}, 0, func(c rt.Ctx) {
			g := c.Group()
			idx := make([]uint64, g.Size)
			one := make([]uint64, g.Size)
			g.Vector(func(l int) { idx[l] = uint64(l); one[l] = 1 })
			c.Inc(arr, idx, one, nil)
		})
	}
	if got := arr.Sum(); got != 200*128 {
		t.Fatalf("sum = %d, want %d", got, 200*128)
	}
	if n := len(cl.Stats().Steps); n != 200 {
		t.Fatalf("steps = %d", n)
	}
}

// TestWGSizeVariants: unusual work-group sizes (one wavefront, odd
// multiples, bigger than the grid) must all work.
func TestWGSizeVariants(t *testing.T) {
	for _, wg := range []int{64, 192, 512} {
		cl := New(Config{Nodes: 2, WGSize: wg})
		arr := cl.Space().Alloc(64)
		cl.Step("inc", []int{100, 7}, 0, func(c rt.Ctx) {
			g := c.Group()
			idx := make([]uint64, g.Size)
			one := make([]uint64, g.Size)
			g.Vector(func(l int) { idx[l] = 0; one[l] = 1 })
			c.Inc(arr, idx, one, nil)
		})
		sum := arr.Sum()
		cl.Close()
		if sum != 107 {
			t.Fatalf("wg=%d: sum=%d, want 107", wg, sum)
		}
	}
}

// TestHugeWGAgainstPCQ: the queue's slot shape follows the WG size.
func TestHugeWGAgainstPCQ(t *testing.T) {
	cl := New(Config{Nodes: 1, WGSize: 1024})
	defer cl.Close()
	if cols := cl.Node(0).PCQ.Cols; cols != 1024 {
		t.Fatalf("PCQ cols = %d, want 1024", cols)
	}
	arr := cl.Space().Alloc(8)
	cl.Step("inc", []int{4096}, 0, func(c rt.Ctx) {
		g := c.Group()
		idx := make([]uint64, g.Size)
		one := make([]uint64, g.Size)
		g.Vector(func(l int) { idx[l] = 0; one[l] = 1 })
		c.Inc(arr, idx, one, nil)
	})
	if arr.Load(0) != 4096 {
		t.Fatalf("count = %d", arr.Load(0))
	}
}

// TestSingleLaneActivity: offloads where only one lane is active.
func TestSingleLaneActivity(t *testing.T) {
	cl := New(Config{Nodes: 2})
	defer cl.Close()
	arr := cl.Space().Alloc(8)
	cl.Step("inc", []int{256, 0}, 0, func(c rt.Ctx) {
		g := c.Group()
		idx := make([]uint64, g.Size)
		one := make([]uint64, g.Size)
		active := make([]bool, g.Size)
		g.Vector(func(l int) {
			idx[l] = 7
			one[l] = 1
			active[l] = l == 13
		})
		c.Inc(arr, idx, one, active)
	})
	if arr.Load(7) != 1 {
		t.Fatalf("count = %d, want 1", arr.Load(7))
	}
}

// TestNoActiveLanes: an offload with an all-false mask is a no-op.
func TestNoActiveLanes(t *testing.T) {
	cl := New(Config{Nodes: 2})
	defer cl.Close()
	arr := cl.Space().Alloc(8)
	cl.Step("inc", []int{256, 0}, 0, func(c rt.Ctx) {
		g := c.Group()
		idx := make([]uint64, g.Size)
		one := make([]uint64, g.Size)
		active := make([]bool, g.Size)
		c.Inc(arr, idx, one, active)
		c.Put(arr, idx, one, active)
		c.AM(0, make([]int, g.Size), idx, one, active)
	})
	if arr.Sum() != 0 {
		t.Fatal("no-op offloads mutated state")
	}
}

// TestOwnerIncExact is the lost-update test for the ownership rule
// (DESIGN.md §4.12): every work-group of every node hammers the same few
// hot cells with Inc, on an Alloc array (whose owner adds without an
// atomic, under the bank mutex, from resolver and bypass goroutines at
// once) and on a SymAlloc array (which keeps the atomic). Every sum must
// be exact, and under -race the plain adds must be ordered.
func TestOwnerIncExact(t *testing.T) {
	const nodes, wgs, steps = 4, 8, 3
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cl := New(Config{Nodes: nodes, ResolverShards: shards})
			defer cl.Close()
			wg := cl.cfg.WGSize
			arrays := []*pgas.Array{cl.Space().Alloc(nodes * 16), cl.Space().SymAlloc(16)}
			// Two hot cells per node: lane l hits hot cell l%8 with l%3+1.
			for s := 0; s < steps; s++ {
				cl.Step("hammer", fullGrid(nodes, wgs*wg), 0, func(c rt.Ctx) {
					g := c.Group()
					idx := make([]uint64, g.Size)
					val := make([]uint64, g.Size)
					g.Vector(func(l int) {
						idx[l] = uint64(l%8/2*16 + l%2)
						val[l] = uint64(l%3 + 1)
					})
					for _, arr := range arrays {
						c.Inc(arr, idx, val, nil)
					}
				})
			}
			var want [nodes * 16]uint64
			for l := 0; l < wg; l++ {
				want[l%8/2*16+l%2] += uint64(l%3+1) * nodes * wgs * steps
			}
			for k, arr := range arrays {
				for i, w := range want {
					if got := arr.Load(uint64(i)); got != w {
						t.Errorf("array %d cell %d = %d, want %d", k, i, got, w)
					}
				}
			}
		})
	}
}
