package models_test

import (
	"fmt"
	"testing"
	"time"

	"gravel/internal/core"
	"gravel/internal/models"
	"gravel/internal/pgas"
	"gravel/internal/rt"
)

// TestBadAddressUnwindsCleanly: a verb handed an out-of-range index or
// a destination outside the cluster must panic with a typed error on
// the kernel's own goroutine, before any of the call's messages is
// enqueued — so a kernel that recovers leaves nothing half-reserved,
// and the step (and the next one) still quiesces. Before the verb
// front-end resolved destinations up front, the index cases hung
// Quiesce on a reserved-never-committed queue slot, and the destination
// cases either killed an aggregator goroutine or dropped the message
// while still counting it.
func TestBadAddressUnwindsCleanly(t *testing.T) {
	const (
		nodes   = 4
		perNode = 256 + 64
		badLane = 3
	)
	cases := []struct {
		name string
		// call issues one verb whose lane badLane is addressed wrongly;
		// every other lane is valid and would add 1 to tab or am.
		call func(c rt.Ctx, tab *pgas.Array, h uint8, idx, one []uint64, dst []int)
		// typed reports whether r is the panic the case must raise.
		typed func(r any) bool
	}{
		{"Inc index", func(c rt.Ctx, tab *pgas.Array, _ uint8, idx, one []uint64, _ []int) {
			idx[badLane] = uint64(tab.Len())
			c.Inc(tab, idx, one, nil)
		}, isRangeError},
		{"Put index", func(c rt.Ctx, tab *pgas.Array, _ uint8, idx, one []uint64, _ []int) {
			idx[badLane] = uint64(tab.Len()) + 7
			c.Put(tab, idx, one, nil)
		}, isRangeError},
		{"AM dest past end", func(c rt.Ctx, _ *pgas.Array, h uint8, idx, one []uint64, dst []int) {
			dst[badLane] = nodes
			c.AM(h, dst, idx, one, nil)
		}, isDestError},
		{"AM dest negative", func(c rt.Ctx, _ *pgas.Array, h uint8, idx, one []uint64, dst []int) {
			dst[badLane] = -1
			c.AM(h, dst, idx, one, nil)
		}, isDestError},
	}
	for _, name := range allSystems() {
		for _, tc := range cases {
			t.Run(name+"/"+tc.name, func(t *testing.T) {
				sys := models.New(name, nodes, nil)
				tab := sys.Space().Alloc(1 << 10)
				am := make([]uint64, nodes)
				h := sys.RegisterAM(func(node int, a, b uint64) { am[node] += b })
				grid := make([]int, nodes)
				for i := range grid {
					grid[i] = perNode
				}
				untyped := make(chan any, nodes*perNode)
				kernel := func(bad bool) rt.Kernel {
					return func(c rt.Ctx) {
						g := c.Group()
						idx := make([]uint64, g.Size)
						one := make([]uint64, g.Size)
						dst := make([]int, g.Size)
						g.Vector(func(l int) {
							idx[l] = uint64(g.GlobalID(l)*13+c.Node()) % uint64(tab.Len())
							one[l] = 1
							dst[l] = (c.Node() + l) % nodes
						})
						c.Inc(tab, idx, one, nil)
						if !bad || g.Size <= badLane {
							return
						}
						defer func() {
							if r := recover(); !tc.typed(r) {
								untyped <- r
							}
						}()
						tc.call(c, tab, h, idx, one, dst)
					}
				}
				done := make(chan struct{})
				go func() {
					defer close(done)
					sys.Step("bad", grid, 0, kernel(true))
					sys.Step("good", grid, 0, kernel(false))
				}()
				select {
				case <-done:
				case <-time.After(10 * time.Second):
					t.Fatal("steps did not quiesce after a recovered verb panic")
				}
				ns := sys.Stats().Queue
				sys.Close()
				select {
				case r := <-untyped:
					t.Errorf("bad verb panicked with %v (%T), want the typed error", r, r)
				default:
				}
				// Only the two good Incs per work-item landed: no lane
				// of a rejected call was sent.
				if got, want := tab.Sum(), uint64(2*nodes*perNode); got != want {
					t.Errorf("table sum = %d, want %d", got, want)
				}
				for i, v := range am {
					if v != 0 {
						t.Errorf("node %d ran %d active messages of a rejected call", i, v)
					}
				}
				if ns.LocalOps+ns.RemoteOps != 2*nodes*perNode {
					t.Errorf("counted %d accesses, want %d", ns.LocalOps+ns.RemoteOps, 2*nodes*perNode)
				}
			})
		}
	}
}

func isRangeError(r any) bool { _, ok := r.(*pgas.RangeError); return ok }
func isDestError(r any) bool  { _, ok := r.(*core.DestError); return ok }

// parentAllocsPerWG is what one work-group's Inc+Put+AM allocated
// through the per-model contexts this front-end replaced (measured by
// this same test at that commit): the context, its all-lanes mask and
// its remote mask, once per work-group. The front-end recycles contexts
// (it measures 0 here), so it must stay at or below that.
var parentAllocsPerWG = map[string]float64{
	"gravel":         3,
	"gravel-archive": 3,
}

// TestVerbAllocsPerWorkGroup guards the benchmark's allocs_per_kmsg at
// its source. Allocations per work-group are the slope between a few-WG
// and a many-WG step — both with more work-groups than the device has
// launch workers — which cancels a step's and its workers' fixed cost.
func TestVerbAllocsPerWorkGroup(t *testing.T) {
	const (
		nodes = 2
		wg    = 256
		few   = 8
		many  = 40
	)
	for name, bound := range parentAllocsPerWG {
		sys := models.NewSystem(name, core.Config{Nodes: nodes, WGSize: wg})
		// Inc and Put get an array each: a cell that receives Inc in a step
		// is its bank's alone (DESIGN.md §4.12), and a local Put stores
		// directly from the kernel.
		tab, slots := sys.Space().Alloc(1<<12), sys.Space().Alloc(1<<12)
		h := sys.RegisterAM(func(int, uint64, uint64) {})
		idx := make([]uint64, many*wg)
		one := make([]uint64, many*wg)
		dst := make([]int, many*wg)
		for i := range idx {
			idx[i] = uint64(i*37) % uint64(tab.Len())
			one[i] = 1
			dst[i] = i % nodes
		}
		kernel := func(c rt.Ctx) {
			g := c.Group()
			lo, hi := g.Global0, g.Global0+g.Size
			c.Inc(tab, idx[lo:hi], one[lo:hi], nil)
			c.Put(slots, idx[lo:hi], one[lo:hi], nil)
			c.AM(h, dst[lo:hi], idx[lo:hi], one[lo:hi], nil)
		}
		step := func(wgs int) float64 {
			grid := []int{wgs * wg, 0}
			return testing.AllocsPerRun(20, func() { sys.Step("allocs", grid, 0, kernel) })
		}
		perWG := (step(many) - step(few)) / (many - few)
		sys.Close()
		t.Logf("%s: %.2f allocs per work-group (parent %.2f)", name, perWG, bound)
		if perWG > bound {
			t.Errorf("%s: %.2f allocs per work-group, parent allocated %.2f", name, perWG, bound)
		}
	}
}

// TestUnrecoveredVerbPanicUnwindsStep is TestBadAddressUnwindsCleanly
// for the kernel that does not recover: every typed error a verb raises
// must come out of Step on the goroutine that called it — whether the
// work-group that raised it ran on a spawned worker of a device-thread
// node or of the node the Step goroutine launches itself — instead of
// killing the process from a worker goroutine, and the cluster must
// still run a good step exactly afterwards.
func TestUnrecoveredVerbPanicUnwindsStep(t *testing.T) {
	const (
		nodes   = 4
		perNode = 256 + 64
	)
	cases := []struct {
		name  string
		call  func(c rt.Ctx, tab, sig *pgas.Array, h uint8, idx, one []uint64, dst []int)
		typed func(r any) bool
	}{
		{"MaskError", func(c rt.Ctx, tab, _ *pgas.Array, _ uint8, idx, one []uint64, _ []int) {
			c.Inc(tab, idx, one, make([]bool, len(idx)+1))
		}, func(r any) bool { _, ok := r.(*core.MaskError); return ok }},
		{"SignalError", func(c rt.Ctx, _, sig *pgas.Array, _ uint8, idx, one []uint64, _ []int) {
			for l := range idx {
				idx[l] = sig.SymIndex((c.Node()+1)%nodes, 0) // a peer's cell: waits must be local
			}
			c.WaitUntil(sig, idx, one, nil)
		}, func(r any) bool { _, ok := r.(*core.SignalError); return ok }},
		{"DestError", func(c rt.Ctx, _, _ *pgas.Array, h uint8, idx, one []uint64, dst []int) {
			dst[len(dst)-1] = nodes
			c.AM(h, dst, idx, one, nil)
		}, isDestError},
		{"RangeError", func(c rt.Ctx, tab, _ *pgas.Array, _ uint8, idx, one []uint64, _ []int) {
			idx[0] = uint64(tab.Len())
			c.Inc(tab, idx, one, nil)
		}, isRangeError},
	}
	// within runs f on a goroutine of its own, as Step's caller, and
	// returns what it panicked (nil if it returned).
	within := func(t *testing.T, what string, f func()) any {
		t.Helper()
		res := make(chan any, 1)
		go func() {
			defer func() { res <- recover() }()
			f()
		}()
		select {
		case r := <-res:
			return r
		case <-time.After(10 * time.Second):
			t.Fatalf("%s did not return within 10 s", what)
			return nil
		}
	}
	for _, name := range allSystems() {
		for _, tc := range cases {
			for _, badNode := range []int{0, nodes - 1} { // a device thread's node, the Step goroutine's
				t.Run(fmt.Sprintf("%s/%s/node%d", name, tc.name, badNode), func(t *testing.T) {
					sys := models.New(name, nodes, nil)
					defer sys.Close()
					tab, sig := sys.Space().Alloc(1<<10), sys.Space().SymAlloc(1)
					h := sys.RegisterAM(func(int, uint64, uint64) {})
					grid := make([]int, nodes)
					for i := range grid {
						grid[i] = perNode
					}
					kernel := func(bad bool) rt.Kernel {
						return func(c rt.Ctx) {
							g := c.Group()
							idx, one, dst := make([]uint64, g.Size), make([]uint64, g.Size), make([]int, g.Size)
							for l := range idx {
								idx[l], one[l], dst[l] = uint64(g.GlobalID(l)*13+c.Node())%uint64(tab.Len()), 1, l%nodes
							}
							if !bad {
								c.Inc(tab, idx, one, nil)
							} else if c.Node() == badNode && g.ID == 1 {
								tc.call(c, tab, sig, h, idx, one, dst)
							}
						}
					}
					r := within(t, "the bad step", func() { sys.Step("bad", grid, 0, kernel(true)) })
					if !tc.typed(r) {
						t.Fatalf("the bad step panicked %v (%T), want the verb's typed error", r, r)
					}
					if r := within(t, "the good step", func() { sys.Step("good", grid, 0, kernel(false)) }); r != nil {
						t.Fatalf("the good step after it panicked: %v", r)
					}
					if got, want := tab.Sum(), uint64(nodes*perNode); got != want {
						t.Errorf("table sum = %d after the good step, want %d", got, want)
					}
				})
			}
		}
	}
}
