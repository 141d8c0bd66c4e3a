// PageRank over a circulant graph, distributed across four simulated
// nodes. Every vertex PUTs rank/degree into a dedicated per-edge slot
// at each neighbor (only non-atomic PUT operations, as in the paper's
// PR workload), then sums its own in-edge slots locally.
//
// The circulant topology (neighbors at fixed offsets) keeps the
// edge-slot indexing self-contained: the in-edge of v coming from
// v-offs[k] lives at slot v*len(offs)+k.
package main

import (
	"fmt"

	"gravel"
)

const (
	n     = 1 << 14 // vertices
	iters = 10
	scale = 1 << 32 // Q.32 fixed point
	damp  = scale * 85 / 100
)

// offs defines the circulant edges: v connects to v+d (mod n) for every
// d, and the set is symmetric so each edge exists in both directions.
// The ±4097 offsets cross partition boundaries, generating remote PUTs.
var offs = []int{-4097, -1, 1, 4097}

func main() {
	const nodes = 4
	sys := gravel.New(gravel.Config{Nodes: nodes})
	defer sys.Close()

	deg := len(offs)
	rank := sys.Space().Alloc(n)
	in := sys.Space().Alloc(n * deg) // in-edge slots, co-located with v
	rank.Fill(scale)

	part := (n + nodes - 1) / nodes
	grid := make([]int, nodes)
	for i := range grid {
		lo, hi := i*part, (i+1)*part
		if hi > n {
			hi = n
		}
		grid[i] = hi - lo
	}

	for it := 0; it < iters; it++ {
		// Push: PUT rank*damp/deg into each neighbor's slot for me.
		sys.Step("push", grid, 0, func(c gravel.Ctx) {
			g := c.Group()
			lo := c.Node() * part
			idx := make([]uint64, g.Size)
			val := make([]uint64, g.Size)
			for k := range offs {
				d := offs[k]
				// The in-edge of v from v-d is slot v*deg+k.
				g.VectorN(3, func(l int) {
					u := lo + g.GlobalID(l)
					v := ((u+d)%n + n) % n
					idx[l] = uint64(v*deg + k)
					val[l] = mulScale(rank.Load(uint64(u)), damp) / uint64(deg)
				})
				c.Put(in, idx, val, nil)
			}
		})
		// Gather: new rank = (1-d) + sum of my in-slots (local reads).
		sys.Step("gather", grid, 0, func(c gravel.Ctx) {
			g := c.Group()
			lo := c.Node() * part
			g.VectorN(deg+2, func(l int) {
				v := lo + g.GlobalID(l)
				acc := uint64(scale - damp)
				for k := 0; k < deg; k++ {
					acc += in.Load(uint64(v*deg + k))
				}
				rank.Store(uint64(v), acc)
			})
		})
	}

	var sum, min, max uint64
	min = ^uint64(0)
	for v := uint64(0); v < n; v++ {
		r := rank.Load(v)
		sum += r
		if r < min {
			min = r
		}
		if r > max {
			max = r
		}
	}
	fmt.Printf("vertices: %d  iterations: %d  nodes: %d\n", n, iters, nodes)
	fmt.Printf("rank mass: %.4f (want %d)\n", float64(sum)/scale, n)
	// A circulant graph is vertex-transitive, so converged ranks must be
	// exactly uniform — a strong end-to-end correctness check.
	fmt.Printf("rank range: [%.4f, %.4f] (uniform = correct)\n", float64(min)/scale, float64(max)/scale)
	fmt.Printf("virtual time: %.3f ms, remote %.1f%%\n",
		sys.VirtualTimeNs()/1e6, 100*sys.Stats().Queue.RemoteFrac())
}

// mulScale multiplies two Q.32 fixed-point values.
func mulScale(a, b uint64) uint64 {
	hiA, loA := a>>32, a&0xffffffff
	hiB, loB := b>>32, b&0xffffffff
	return hiA*hiB<<32 + hiA*loB + loA*hiB + loA*loB>>32
}
