// Distributed k-means clustering (the paper's kmeans workload): points
// live on their generating node; cluster accumulators are distributed
// by cluster ID and updated exclusively with fine-grain atomic
// increments, so with k = nodes each node owns one cluster and ~ (k-1)/k
// of all updates are remote.
package main

import (
	"fmt"

	"gravel"
)

const (
	nodes   = 4
	perNode = 50_000
	k       = 4
	dims    = 2
	iters   = 6
	fx      = 1 << 20 // Q.20 fixed-point coordinates in [0,1)
)

func hash(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return x
}

// coord generates coordinate d of point (node, i): a planted cluster
// center plus bounded noise.
func coord(node, i, d int) uint64 {
	h := hash(uint64(node)<<40 ^ uint64(i))
	c := h % k
	center := (2*c + 1) * fx / (2 * k)
	noise := hash(h^uint64(d)<<32) % (fx / (2 * k))
	return center + noise - fx/(4*k)
}

func main() {
	sys := gravel.New(gravel.Config{Nodes: nodes})
	defer sys.Close()

	sum := sys.Space().Alloc(k * dims) // cluster c owns [c*dims, c*dims+dims)
	cnt := sys.Space().Alloc(k)

	cent := make([]uint64, k*dims)
	for c := 0; c < k; c++ {
		for d := 0; d < dims; d++ {
			cent[c*dims+d] = uint64(2*c+1) * fx / (2 * k)
		}
	}

	grid := make([]int, nodes)
	for i := range grid {
		grid[i] = perNode
	}

	for it := 0; it < iters; it++ {
		snap := append([]uint64(nil), cent...)
		sys.Step("assign", grid, 0, func(ctx gravel.Ctx) {
			g := ctx.Group()
			node := ctx.Node()
			cl := make([]uint64, g.Size)
			one := make([]uint64, g.Size)
			idx := make([]uint64, g.Size)
			val := make([]uint64, g.Size)
			// Nearest centroid: k*dims distance terms per point.
			g.VectorN(2*k*dims, func(l int) {
				i := g.GlobalID(l)
				best, bestD := 0, ^uint64(0)
				for c := 0; c < k; c++ {
					var dist uint64
					for d := 0; d < dims; d++ {
						diff := int64(coord(node, i, d)) - int64(snap[c*dims+d])
						dist += uint64(diff * diff)
					}
					if dist < bestD {
						bestD, best = dist, c
					}
				}
				cl[l] = uint64(best)
				one[l] = 1
			})
			for d := 0; d < dims; d++ {
				dd := d
				g.Vector(func(l int) {
					idx[l] = cl[l]*dims + uint64(dd)
					val[l] = coord(node, g.GlobalID(l), dd)
				})
				ctx.Inc(sum, idx, val, nil)
			}
			ctx.Inc(cnt, cl, one, nil)
		})

		// Host: recompute centroids, reset accumulators.
		for c := 0; c < k; c++ {
			n := cnt.Load(uint64(c))
			if n == 0 {
				continue
			}
			for d := 0; d < dims; d++ {
				cent[c*dims+d] = sum.Load(uint64(c*dims+d)) / n
			}
		}
		sum.Fill(0)
		cnt.Fill(0)
	}

	fmt.Printf("k-means: %d points, k=%d, %d iterations on %d nodes\n",
		nodes*perNode, k, iters, nodes)
	for c := 0; c < k; c++ {
		fmt.Printf("  centroid %d: (%.4f, %.4f)  planted (%.4f, %.4f)\n", c,
			float64(cent[c*dims])/fx, float64(cent[c*dims+1])/fx,
			float64(2*c+1)/(2*k), float64(2*c+1)/(2*k))
	}
	st := sys.Stats()
	fmt.Printf("virtual time %.3f ms, remote %.1f%% (want ≈ %.1f%%)\n",
		sys.VirtualTimeNs()/1e6, 100*st.Queue.RemoteFrac(), 100*float64(k-1)/float64(k))
}
