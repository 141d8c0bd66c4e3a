// Package kmeans implements the paper's k-means clustering workload
// (§6): Lloyd iterations over node-local Cartesian points, with cluster
// accumulators held in the global address space and updated exclusively
// by atomic increments (§7.1: kmeans uses atomics exclusively). With
// k = 8 clusters on 8 nodes, each node owns one cluster's accumulators,
// so 7/8 of all updates are remote — the Table 5 87.5 %.
//
// Coordinates are Q.20 fixed point so accumulation is exactly
// commutative and results match the sequential reference bit-for-bit
// under any node count or networking model.
package kmeans

import (
	"fmt"

	"gravel/internal/ckpt"
	"gravel/internal/graph"
	"gravel/internal/rt"
)

// CoordScale converts [0,1) coordinates to fixed point.
const CoordScale = 1 << 20

// Config parameterizes a k-means run.
type Config struct {
	PointsPerNode int
	K             int
	Dims          int
	Iters         int
	Seed          uint64
}

// Result reports a k-means run.
type Result struct {
	Ns float64
	// Centroids holds the final centroids in fixed point, k*Dims values.
	Centroids []uint64
	// Counts holds the final per-cluster point counts.
	Counts []int64
	Iters  int
	// Err reports a checkpoint restore or save that failed.
	Err error
}

// pointCoord deterministically generates coordinate d of point (node, i):
// a planted center plus noise, so clustering is meaningful.
func pointCoord(seed uint64, node, i, d, k int) uint64 {
	h := graph.Hash64(seed ^ uint64(node)<<40 ^ uint64(i))
	c := int(h % uint64(k))
	center := (uint64(c)*2 + 1) * CoordScale / uint64(2*k)
	noise := graph.Hash64(h^uint64(d)<<32) % (CoordScale / uint64(2*k))
	return center + noise - CoordScale/uint64(4*k)
}

// assign returns the nearest centroid for a point.
func assign(pt []uint64, cent []uint64, k, dims int) int {
	best, bestD := 0, ^uint64(0)
	for c := 0; c < k; c++ {
		var dist uint64
		for d := 0; d < dims; d++ {
			diff := int64(pt[d]) - int64(cent[c*dims+d])
			dist += uint64(diff * diff)
		}
		if dist < bestD {
			bestD = dist
			best = c
		}
	}
	return best
}

// Run executes k-means on the given system.
func Run(sys rt.System, cfg Config) Result {
	return RunAt(sys, cfg, rt.Whole())
}

// RunAt is k-means: at says which node's points this call launches. In
// a distributed run each process's accumulator replicas hold exactly
// the contributions that landed on its owned clusters, so reducing each
// accumulator through at.Coll yields the global sums, every process
// recomputes identical centroids, and the final Centroids/Counts match
// the whole run bit-for-bit in every process.
//
// With at.Ckpt set the shard saves the centroid vector after an
// iteration's reductions (the accumulators are zero at that cut, and the
// next iteration regenerates every increment from the centroids alone)
// and resumes from a restore point. Every shard saves the same payload;
// points are generated per (node, index), so a restore point is only
// valid at the node count that saved it. A restore or save that fails
// is the Result's Err.
func RunAt(sys rt.System, cfg Config, at rt.Where) Result {
	if err := at.Err(); err != nil {
		return Result{Err: err}
	}
	ck, coll := at.Ckpt, at.Coll
	if cfg.Dims == 0 {
		cfg.Dims = 2
	}
	nodes := sys.Nodes()
	k, dims := cfg.K, cfg.Dims

	// Accumulators: SUM[c*dims+d] and CNT[c]. Partition SUM so cluster c
	// lives on node c*nodes/k (even spread for any k, nodes).
	sumBounds := make([]int, nodes+1)
	cntBounds := make([]int, nodes+1)
	for i := 1; i <= nodes; i++ {
		c := i * k / nodes
		cntBounds[i] = c
		sumBounds[i] = c * dims
	}
	sum := sys.Space().AllocRanges(sumBounds)
	cnt := sys.Space().AllocRanges(cntBounds)

	// Initial centroids: planted centers, identical on every node.
	cent := make([]uint64, k*dims)
	for c := 0; c < k; c++ {
		for d := 0; d < dims; d++ {
			cent[c*dims+d] = (uint64(c)*2 + 1) * CoordScale / uint64(2*k)
		}
	}

	start := 0
	if len(ck.Resume) > 0 {
		iter, err := restoreCentroids(cent, ck.Resume)
		if err != nil {
			return Result{Err: err}
		}
		start = int(iter)
	}
	if ck.Active() {
		sys.Step("kmeans-start-sync", make([]int, nodes), 0, func(rt.Ctx) {})
	}

	grid := make([]int, nodes)
	for i := range grid {
		if at.Runs(i) {
			grid[i] = cfg.PointsPerNode
		}
	}

	t0 := sys.VirtualTimeNs()
	for it := start; it < cfg.Iters; it++ {
		centSnap := append([]uint64(nil), cent...) // read-only during kernel
		sys.Step("kmeans-assign", grid, 0, func(c rt.Ctx) {
			wg := c.Group()
			pt := make([]uint64, dims)
			cl := make([]uint64, wg.Size)
			cntIdx := make([]uint64, wg.Size)
			one := make([]uint64, wg.Size)
			sumIdx := make([]uint64, wg.Size)
			coord := make([]uint64, wg.Size)
			node := c.Node()

			// Distance computation: k*dims multiply-adds per point.
			wg.VectorN(2*k*dims, func(l int) {
				i := wg.GlobalID(l)
				for d := 0; d < dims; d++ {
					pt[d] = pointCoord(cfg.Seed, node, i, d, k)
				}
				cl[l] = uint64(assign(pt, centSnap, k, dims))
				cntIdx[l] = cl[l]
				one[l] = 1
			})
			// One atomic increment per dimension plus the count.
			for d := 0; d < dims; d++ {
				dd := d
				wg.VectorN(1, func(l int) {
					i := wg.GlobalID(l)
					sumIdx[l] = cl[l]*uint64(dims) + uint64(dd)
					coord[l] = pointCoord(cfg.Seed, node, i, dd, k)
				})
				c.Inc(sum, sumIdx, coord, nil)
			}
			c.Inc(cnt, cntIdx, one, nil)
		})

		// Host: recompute centroids from the accumulators and reset them.
		// In a distributed run each process holds only its owned clusters'
		// accumulators (it reads the rest as zero), so the collective sum
		// of the processes' readings is the global accumulator; the reduced
		// values — and therefore the centroids — are identical in every
		// process.
		//
		// Snapshot and reset BEFORE contributing to the reductions: a peer
		// that collects the last reduction may launch the next iteration's
		// kernel immediately, and its increments land on our replica the
		// moment they arrive — a reset after the reductions would wipe them.
		// Every peer is blocked in the reductions until this process has
		// contributed, i.e. until after this reset.
		sys.ChargeHost(5000)
		cntSnap := make([]uint64, k)
		sumSnap := make([]uint64, k*dims)
		for c := 0; c < k; c++ {
			if !sys.Space().Hosts(cnt.Owner(uint64(c))) {
				continue // another process's cluster (sum co-locates with cnt)
			}
			cntSnap[c] = cnt.Load(uint64(c))
			for d := 0; d < dims; d++ {
				sumSnap[c*dims+d] = sum.Load(uint64(c*dims + d))
			}
		}
		sum.Fill(0)
		cnt.Fill(0)
		for c := 0; c < k; c++ {
			n, err := rt.AllReduce(coll, fmt.Sprintf("km:%d:c:%d", it, c), rt.WorldTeam, rt.OpSum, cntSnap[c])
			if err != nil {
				panic(err)
			}
			if n == 0 {
				continue
			}
			for d := 0; d < dims; d++ {
				s, err := rt.AllReduce(coll, fmt.Sprintf("km:%d:s:%d", it, c*dims+d), rt.WorldTeam, rt.OpSum, sumSnap[c*dims+d])
				if err != nil {
					panic(err)
				}
				cent[c*dims+d] = s / n
			}
		}

		if ck.Due(it+1) && it+1 < cfg.Iters {
			if err := ck.Save(uint64(it+1), EncodeShard(cent, uint64(it+1))); err != nil {
				return Result{Err: err}
			}
		}
	}
	ns := sys.VirtualTimeNs() - t0

	counts := make([]int64, k)
	// Reproduce the final counts with one more assignment pass (host).
	pt := make([]uint64, dims)
	for node := 0; node < nodes; node++ {
		for i := 0; i < cfg.PointsPerNode; i++ {
			for d := 0; d < dims; d++ {
				pt[d] = pointCoord(cfg.Seed, node, i, d, k)
			}
			counts[assign(pt, cent, k, dims)]++
		}
	}
	return Result{Ns: ns, Centroids: cent, Counts: counts, Iters: cfg.Iters}
}

// EncodeShard builds a checkpoint payload: the iteration the run has
// completed followed by the centroid vector. Every shard saves the
// same payload (centroids are identical in every process after the
// iteration's reductions), which doubles as a cross-shard consistency
// check at restore.
func EncodeShard(cent []uint64, iter uint64) []byte {
	p := ckpt.EncodeU64s([]uint64{iter, uint64(len(cent))}, len(cent))
	for _, v := range cent {
		p = ckpt.AppendU64(p, v)
	}
	return p
}

// restoreCentroids loads the centroid vector from a restore point and
// returns the iteration it was taken at, verifying that every shard
// saved an identical payload.
func restoreCentroids(cent []uint64, shards [][]byte) (uint64, error) {
	var iter uint64
	for i, p := range shards {
		w, err := ckpt.DecodeShard(p, 2, 1)
		if err != nil {
			return 0, fmt.Errorf("kmeans: shard %d: %w", i, err)
		}
		if len(w)-2 != len(cent) {
			return 0, fmt.Errorf("kmeans: shard %d saved %d centroid words, want %d", i, len(w)-2, len(cent))
		}
		if i == 0 {
			iter = w[0]
			copy(cent, w[2:])
			continue
		}
		if w[0] != iter {
			return 0, fmt.Errorf("kmeans: shard %d saved iter %d, shard 0 saved iter %d (inconsistent cut)", i, w[0], iter)
		}
		for j, v := range w[2:] {
			if v != cent[j] {
				return 0, fmt.Errorf("kmeans: shard %d centroid word %d diverges from shard 0", i, j)
			}
		}
	}
	return iter, nil
}

// Reference runs the same fixed-point Lloyd iterations sequentially over
// the union of all nodes' points; Run must match it exactly.
func Reference(cfg Config, nodes int) []uint64 {
	if cfg.Dims == 0 {
		cfg.Dims = 2
	}
	k, dims := cfg.K, cfg.Dims
	cent := make([]uint64, k*dims)
	for c := 0; c < k; c++ {
		for d := 0; d < dims; d++ {
			cent[c*dims+d] = (uint64(c)*2 + 1) * CoordScale / uint64(2*k)
		}
	}
	pt := make([]uint64, dims)
	sum := make([]uint64, k*dims)
	cnt := make([]uint64, k)
	for it := 0; it < cfg.Iters; it++ {
		for i := range sum {
			sum[i] = 0
		}
		for i := range cnt {
			cnt[i] = 0
		}
		for node := 0; node < nodes; node++ {
			for i := 0; i < cfg.PointsPerNode; i++ {
				for d := 0; d < dims; d++ {
					pt[d] = pointCoord(cfg.Seed, node, i, d, k)
				}
				c := assign(pt, cent, k, dims)
				cnt[c]++
				for d := 0; d < dims; d++ {
					sum[c*dims+d] += pt[d]
				}
			}
		}
		for c := 0; c < k; c++ {
			if cnt[c] == 0 {
				continue
			}
			for d := 0; d < dims; d++ {
				cent[c*dims+d] = sum[c*dims+d] / cnt[c]
			}
		}
	}
	return cent
}
