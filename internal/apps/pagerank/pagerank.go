// Package pagerank implements the paper's PR workload (§6, derived from
// GasCL): push-style PageRank over a block-partitioned graph. Each
// iteration, every vertex PUTs rank/out-degree into a dedicated
// per-edge slot at each out-neighbor (so only non-atomic PUT operations
// are needed, matching §7.1: "PR and color use non-atomic operations
// exclusively"), then every vertex locally sums its in-edge slots.
//
// Ranks use Q24.32 fixed-point arithmetic so that results are exactly
// deterministic across node counts and networking models.
package pagerank

import (
	"fmt"
	"hash/fnv"

	"gravel/internal/ckpt"
	"gravel/internal/graph"
	"gravel/internal/pgas"
	"gravel/internal/rt"
)

// Scale is the fixed-point scale of rank values (1.0 == 1<<32).
const Scale = 1 << 32

// Damping is the damping factor in fixed-point (0.85).
const Damping = (Scale * 85) / 100

// Config parameterizes a PageRank run.
type Config struct {
	G     *graph.Graph
	Iters int
}

// Result reports a PageRank run.
type Result struct {
	Ns float64
	// RankSum is the sum of final ranks in units of 1.0; it stays ≈ N
	// when the graph has no dangling vertices.
	RankSum float64
	// FixedSum is the same sum in raw fixed-point units — exact, so
	// distributed per-shard sums can be reduced and compared.
	FixedSum uint64
	// Checksum is an FNV-1a hash of the final fixed-point rank vector.
	Checksum uint64
	Iters    int
	// Err reports a checkpoint restore or save that failed.
	Err error
}

// vertexBounds returns the block-partition boundaries of the vertex set.
func vertexBounds(n, nodes int) []int {
	part := (n + nodes - 1) / nodes
	b := make([]int, nodes+1)
	for i := 1; i <= nodes; i++ {
		v := i * part
		if v > n {
			v = n
		}
		b[i] = v
	}
	return b
}

// slotBounds maps vertex bounds through inOff so per-edge slots live
// with their target vertex.
func slotBounds(inOff []int64, vb []int) []int {
	b := make([]int, len(vb))
	for i, v := range vb {
		b[i] = int(inOff[v])
	}
	return b
}

// Run executes PageRank on the given system, launching on every node.
func Run(sys rt.System, cfg Config) Result {
	return RunAt(sys, cfg, rt.Whole())
}

// RunAt is PageRank: at says which node's share of the pushes this call
// launches. A shard's RankSum, FixedSum and Checksum cover only that
// node's vertices (rank.Fill seeds every shard identically, and phases
// only read vertices the launching node owns), so reducing FixedSum
// across processes yields the whole run's total.
//
// With at.Ckpt set the shard saves its rank slice at iteration
// boundaries (the pr-gather step barrier) and resumes from a restore
// point, bit-identical to an undisturbed run over the shard's vertex
// range. Rank payloads carry their global vertex range and every
// in-slot is rewritten by the first pr-push after a restore, so the
// rank vector is the complete state and PageRank is reshardable: a
// checkpoint saved by N workers restores under any node count, with
// the same reduced FixedSum. A restore or save that fails is the
// Result's Err.
func RunAt(sys rt.System, cfg Config, at rt.Where) Result {
	if err := at.Err(); err != nil {
		return Result{Err: err}
	}
	ck, only := at.Ckpt, at.Node
	g := cfg.G
	nodes := sys.Nodes()
	vb := vertexBounds(g.N, nodes)
	inOff, slotOf := g.InSlots()

	rank := sys.Space().AllocRanges(vb)
	in := sys.Space().AllocRanges(slotBounds(inOff, vb))

	rank.Fill(Scale) // every vertex starts at rank 1.0

	start := 0
	if len(ck.Resume) > 0 {
		iter, err := restoreRanks(rank, vb[only], vb[only+1], ck.Resume)
		if err != nil {
			return Result{Err: err}
		}
		start = int(iter)
	}
	if ck.Active() {
		sys.Step("pr-start-sync", make([]int, nodes), 0, func(rt.Ctx) {})
	}

	grid := make([]int, nodes)
	for i := 0; i < nodes; i++ {
		if at.Runs(i) {
			grid[i] = vb[i+1] - vb[i]
		}
	}

	t0 := sys.VirtualTimeNs()
	for it := start; it < cfg.Iters; it++ {
		// Phase 1: every vertex pushes rank*damping/deg to each
		// out-neighbor's in-slot.
		sys.Step("pr-push", grid, 0, func(c rt.Ctx) {
			wg := c.Group()
			lo := uint64(vb[c.Node()])
			counts := make([]int, wg.Size)
			contrib := make([]uint64, wg.Size)
			idx := make([]uint64, wg.Size)
			val := make([]uint64, wg.Size)
			wg.VectorN(3, func(l int) {
				v := lo + uint64(wg.GlobalID(l))
				d := g.Deg(int(v))
				counts[l] = d
				if d > 0 {
					r := rank.Load(v)
					contrib[l] = mulScale(r, Damping) / uint64(d)
				}
			})
			wg.PredicatedLoop(counts, 3, func(i int, active []bool) {
				wg.VectorMasked(2, active, func(l int) {
					v := int(lo) + wg.GlobalID(l)
					e := g.Off[v] + int64(i)
					idx[l] = uint64(slotOf[e])
					val[l] = contrib[l]
				})
				// Scattered slot writes: one cache line per active lane
				// (memory divergence, §2.2).
				wg.ChargeMemDivergence(wg.ActiveLaneCount())
				c.Put(in, idx, val, active)
			})
		})

		// Phase 2: every vertex sums its in-slots locally (no network
		// traffic; divergent local reads).
		sys.Step("pr-gather", grid, 0, func(c rt.Ctx) {
			wg := c.Group()
			lo := uint64(vb[c.Node()])
			counts := make([]int, wg.Size)
			acc := make([]uint64, wg.Size)
			wg.VectorN(1, func(l int) {
				v := int(lo) + wg.GlobalID(l)
				counts[l] = int(inOff[v+1] - inOff[v])
				acc[l] = Scale - Damping // (1-d) * 1.0
			})
			wg.PredicatedLoop(counts, 2, func(i int, active []bool) {
				wg.VectorMasked(1, active, func(l int) {
					v := int(lo) + wg.GlobalID(l)
					acc[l] += in.Load(uint64(inOff[v] + int64(i)))
				})
				// Each lane reads a different slot range: divergent loads.
				wg.ChargeMemDivergence(wg.ActiveLaneCount())
			})
			wg.VectorN(1, func(l int) {
				v := lo + uint64(wg.GlobalID(l))
				rank.Store(v, acc[l])
			})
		})

		if ck.Due(it+1) && it+1 < cfg.Iters {
			if err := ck.Save(uint64(it+1), EncodeShard(rank, vb, only, uint64(it+1))); err != nil {
				return Result{Err: err}
			}
		}
	}
	ns := sys.VirtualTimeNs() - t0

	vlo, vhi := 0, g.N
	if !at.Full() {
		vlo, vhi = vb[only], vb[only+1]
	}
	h := fnv.New64a()
	var buf [8]byte
	var sum uint64
	for v := uint64(vlo); v < uint64(vhi); v++ {
		r := rank.Load(v)
		sum += r
		putU64(buf[:], r)
		h.Write(buf[:])
	}
	return Result{
		Ns:       ns,
		RankSum:  float64(sum) / Scale,
		FixedSum: sum,
		Checksum: h.Sum64(),
		Iters:    cfg.Iters,
	}
}

// EncodeShard builds node's checkpoint payload: the iteration the
// shard has completed, the global vertex range it owns, and the owned
// rank values. Per-edge in-slots are deliberately excluded — every
// in-slot is fully rewritten by the next pr-push (each in-edge's
// source vertex pushes into it every iteration), so the rank vector at
// an iteration boundary is the complete state.
func EncodeShard(rank *pgas.Array, vb []int, node int, iter uint64) []byte {
	lo, hi := vb[node], vb[node+1]
	p := ckpt.EncodeU64s([]uint64{iter, uint64(lo), uint64(hi - lo)}, hi-lo)
	for v := lo; v < hi; v++ {
		p = ckpt.AppendU64(p, rank.Load(uint64(v)))
	}
	return p
}

// restoreRanks replays saved rank values falling in this node's vertex
// range [vlo, vhi) and returns the iteration the checkpoint was taken
// at. Only the owned range is restored (a process only ever reads and
// checksums its own vertices' ranks, and restoring more would break
// the additive per-shard FixedSum). The shards may come from an epoch
// with a *different* node count: payloads carry explicit global vertex
// ranges, so this node gathers its range from whichever old shards
// overlap it — the resharding path of a live scale-out.
func restoreRanks(rank *pgas.Array, vlo, vhi int, shards [][]byte) (uint64, error) {
	var iter uint64
	covered := 0
	for i, p := range shards {
		w, err := ckpt.DecodeShard(p, 3, 1)
		if err != nil {
			return 0, fmt.Errorf("pagerank: shard %d: %w", i, err)
		}
		if i == 0 {
			iter = w[0]
		} else if w[0] != iter {
			return 0, fmt.Errorf("pagerank: shard %d saved iter %d, shard 0 saved iter %d (inconsistent cut)", i, w[0], iter)
		}
		lo := int(w[1])
		for j, v := range w[3:] {
			if g := lo + j; g >= vlo && g < vhi {
				rank.Store(uint64(g), v)
				covered++
			}
		}
	}
	if covered != vhi-vlo {
		return 0, fmt.Errorf("pagerank: restore covers %d of %d owned vertices", covered, vhi-vlo)
	}
	return iter, nil
}

// Reference computes the same fixed-point PageRank sequentially; Run
// must match it bit-for-bit.
func Reference(g *graph.Graph, iters int) []uint64 {
	inOff, slotOf := g.InSlots()
	rank := make([]uint64, g.N)
	in := make([]uint64, g.E())
	for v := range rank {
		rank[v] = Scale
	}
	for it := 0; it < iters; it++ {
		for u := 0; u < g.N; u++ {
			d := g.Deg(u)
			if d == 0 {
				continue
			}
			contrib := mulScale(rank[u], Damping) / uint64(d)
			for e := g.Off[u]; e < g.Off[u+1]; e++ {
				in[slotOf[e]] = contrib
			}
		}
		for v := 0; v < g.N; v++ {
			acc := uint64(Scale - Damping)
			for s := inOff[v]; s < inOff[v+1]; s++ {
				acc += in[s]
			}
			rank[v] = acc
		}
	}
	return rank
}

// mulScale multiplies two Q.32 fixed-point numbers.
func mulScale(a, b uint64) uint64 {
	hiA, loA := a>>32, a&0xffffffff
	hiB, loB := b>>32, b&0xffffffff
	return hiA*hiB<<32 + hiA*loB + loA*hiB + loA*loB>>32
}

func putU64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}
