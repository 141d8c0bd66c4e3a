// Package color implements the paper's graph-coloring workload (§6,
// derived from GasCL): Jones–Plassmann coloring with random priorities.
// Each round, every uncolored vertex whose priority beats all of its
// uncolored neighbors picks the smallest free color and PUTs it into a
// dedicated per-edge slot at every neighbor (§7.1: color uses non-atomic
// PUT operations exclusively).
//
// For symmetric graphs with sorted adjacency lists, vertex v's k-th
// in-edge slot corresponds to its k-th out-neighbor, so neighbor colors
// can be read locally without extra index structures.
package color

import (
	"fmt"

	"gravel/internal/graph"
	"gravel/internal/rt"
)

// Config parameterizes a coloring run.
type Config struct {
	G *graph.Graph
	// Seed perturbs the random priorities.
	Seed uint64
	// MaxRounds bounds the rounds (0 = unlimited).
	MaxRounds int
}

// Result reports a coloring run.
type Result struct {
	Ns     float64
	Rounds int
	Colors int
	// Colored is the number of vertices colored (must equal N).
	Colored int64
	// ColorSum is the sum of the stored color values (color+1) over the
	// scanned vertex range; per-shard sums add up to the full-run sum,
	// making it the distributed-run equivalence check.
	ColorSum uint64
	// ColorAt reads the final coloring (color+1; 0 = uncolored).
	ColorAt func(v uint64) uint64
}

// prio returns vertex v's random priority; ties are impossible because
// the vertex ID breaks them.
func prio(seed, v uint64) uint64 {
	return graph.Hash64(seed^v)<<20 | v&0xfffff
}

// Run executes Jones–Plassmann coloring on the given system.
func Run(sys rt.System, cfg Config) Result {
	return RunAt(sys, cfg, rt.Whole())
}

// RunAt is the coloring: at says which node's shard this call launches.
// The per-round "is everything colored?" decision sums each shard's
// colored count through at.Coll so every process runs the same number
// of rounds. A shard's Colored and ColorSum cover only its vertex range
// and sum across shards to the whole run's values.
func RunAt(sys rt.System, cfg Config, at rt.Where) Result {
	coll, only := at.Coll, at.Node
	g := cfg.G
	nodes := sys.Nodes()
	part := (g.N + nodes - 1) / nodes
	inOff, slotOf := g.InSlots()

	vb := make([]int, nodes+1)
	sb := make([]int, nodes+1)
	for i := 1; i <= nodes; i++ {
		v := i * part
		if v > g.N {
			v = g.N
		}
		vb[i] = v
		sb[i] = int(inOff[v])
	}

	// colorOf[v]: 0 = uncolored, else color+1. nbr[slot]: neighbor's
	// colorOf value as PUT by the neighbor.
	colorOf := sys.Space().AllocRanges(vb)
	nbr := sys.Space().AllocRanges(sb)

	grid := make([]int, nodes)
	for i := 0; i < nodes; i++ {
		if at.Runs(i) {
			grid[i] = vb[i+1] - vb[i]
		}
	}
	// The vertex range this process scans for termination and results:
	// everything in a single-process run, the owned shard otherwise.
	scanLo, scanHi := uint64(0), uint64(g.N)
	if !at.Full() {
		scanLo, scanHi = uint64(vb[only]), uint64(vb[only+1])
	}

	// notified[v] marks vertices whose color has already been pushed to
	// their neighbors; each vertex is only ever touched by its own lane.
	notified := make([]bool, g.N)

	t0 := sys.VirtualTimeNs()
	rounds := 0
	for {
		rounds++
		// Decide: highest-priority uncolored vertex among uncolored
		// neighbors picks the smallest free color. Reads are local (own
		// color, own in-slots) and see only last round's notifications,
		// so rounds are deterministic under any node count.
		sys.Step("color-decide", grid, 0, func(c rt.Ctx) {
			wg := c.Group()
			lo := vb[c.Node()]
			wg.VectorN(4, func(l int) {
				v := lo + wg.GlobalID(l)
				if colorOf.Load(uint64(v)) != 0 {
					return
				}
				myPrio := prio(cfg.Seed, uint64(v))
				adj := g.Out(v)
				var used uint64 // bitmask of small neighbor colors
				var overflow []uint64
				win := true
				for k, u := range adj {
					nc := nbr.Load(uint64(inOff[v] + int64(k)))
					if nc == 0 {
						if prio(cfg.Seed, uint64(u)) > myPrio {
							win = false
							break
						}
					} else if nc-1 < 64 {
						used |= 1 << (nc - 1)
					} else {
						overflow = append(overflow, nc-1)
					}
				}
				wg.ChargeMemDivergence(len(adj))
				if !win {
					return
				}
				colorOf.Store(uint64(v), smallestFree(used, overflow)+1)
			})
		})

		// Notify: newly colored vertices PUT their color into every
		// neighbor's slot for the reverse edge.
		sys.Step("color-notify", grid, 0, func(c rt.Ctx) {
			wg := c.Group()
			lo := vb[c.Node()]
			counts := make([]int, wg.Size)
			chosen := make([]uint64, wg.Size)
			idx := make([]uint64, wg.Size)
			val := make([]uint64, wg.Size)
			wg.VectorN(2, func(l int) {
				v := lo + wg.GlobalID(l)
				cv := colorOf.Load(uint64(v))
				if cv != 0 && !notified[v] {
					notified[v] = true
					chosen[l] = cv
					counts[l] = g.Deg(v)
				}
			})
			wg.PredicatedLoop(counts, 2, func(i int, active []bool) {
				wg.VectorMasked(2, active, func(l int) {
					v := lo + wg.GlobalID(l)
					e := g.Off[v] + int64(i)
					idx[l] = uint64(slotOf[e])
					val[l] = chosen[l]
				})
				// Scattered slot writes (memory divergence).
				wg.ChargeMemDivergence(wg.ActiveLaneCount())
				c.Put(nbr, idx, val, active)
			})
		})
		sys.ChargeHost(1000)

		colored := uint64(0)
		for v := scanLo; v < scanHi; v++ {
			if colorOf.Load(v) != 0 {
				colored++
			}
		}
		total, err := rt.AllReduce(coll, fmt.Sprintf("color:done:%d", rounds), rt.WorldTeam, rt.OpSum, colored)
		if err != nil {
			panic(err)
		}
		if total == uint64(g.N) {
			break
		}
		if cfg.MaxRounds > 0 && rounds >= cfg.MaxRounds {
			break
		}
	}
	ns := sys.VirtualTimeNs() - t0

	maxColor := uint64(0)
	colored := int64(0)
	colorSum := uint64(0)
	for v := scanLo; v < scanHi; v++ {
		cv := colorOf.Load(v)
		if cv != 0 {
			colored++
		}
		colorSum += cv
		if cv > maxColor {
			maxColor = cv
		}
	}
	return Result{Ns: ns, Rounds: rounds, Colors: int(maxColor), Colored: colored, ColorSum: colorSum, ColorAt: colorOf.Load}
}

// smallestFree returns the smallest color (0-based) not in the used
// bitmask or the overflow list.
func smallestFree(used uint64, overflow []uint64) uint64 {
	for c := uint64(0); ; c++ {
		var taken bool
		if c < 64 {
			taken = used&(1<<c) != 0
		}
		if !taken {
			for _, o := range overflow {
				if o == c {
					taken = true
					break
				}
			}
		}
		if !taken {
			return c
		}
	}
}

// Validate checks that the coloring stored in colors (as written by Run:
// color+1 per vertex) is proper; it returns an error naming the first
// conflict.
func Validate(g *graph.Graph, colorAt func(v uint64) uint64) error {
	for u := 0; u < g.N; u++ {
		cu := colorAt(uint64(u))
		if cu == 0 {
			return fmt.Errorf("vertex %d uncolored", u)
		}
		for _, v := range g.Out(u) {
			if cv := colorAt(uint64(v)); cv == cu {
				return fmt.Errorf("conflict: vertices %d and %d share color %d", u, v, cu)
			}
		}
	}
	return nil
}
