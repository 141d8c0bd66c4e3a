// Package sssp implements the paper's single-source shortest path
// workload (§6): level-synchronous Bellman-Ford relaxation over a
// block-partitioned weighted graph. Edge relaxations travel as active
// messages to the target vertex's owner (§7.1: SSSP uses atomic
// operations — active messages), whose network thread applies the
// min-update and enqueues newly improved vertices on the owner's next
// frontier.
package sssp

import (
	"fmt"
	"hash/fnv"

	"gravel/internal/graph"
	"gravel/internal/rt"
)

// Inf is the distance of unreached vertices.
const Inf = uint64(1) << 62

// Config parameterizes an SSSP run.
type Config struct {
	G *graph.Graph
	// Source is the source vertex; if it is isolated (degree 0, which
	// can happen in generated meshes with deleted edges), the next
	// vertex with edges is used — see EffectiveSource.
	Source int
	// MaxSteps bounds the superstep count (0 = unlimited).
	MaxSteps int
}

// EffectiveSource resolves the source vertex Run and Reference actually
// use: src itself if it has out-edges, else the first later vertex that
// does.
func EffectiveSource(g *graph.Graph, src int) int {
	for v := src; v < g.N; v++ {
		if g.Deg(v) > 0 {
			return v
		}
	}
	return src
}

// Result reports an SSSP run.
type Result struct {
	Ns         float64
	Reached    int64
	Supersteps int
	// Checksum is an FNV-1a hash over the final distance vector.
	Checksum uint64
	// DistSum is the sum of finite distances.
	DistSum uint64
}

// state is the per-run mutable frontier state shared between the AM
// handler (network threads) and the host loop. Each node's handler only
// touches its own entry, and the host only reads between supersteps.
type state struct {
	next    [][]uint32
	pending []map[uint32]bool
}

// Run executes SSSP on the given system.
func Run(sys rt.System, cfg Config) Result {
	return RunAt(sys, cfg, rt.Whole())
}

// RunAt is SSSP: at says which node's shard this call launches. The
// level-synchronous termination decision — "is the global frontier
// empty?" — goes through at.Coll, so every process agrees on the
// superstep count. A shard's Reached and DistSum sum across shards to
// the whole run's values; Checksum covers only the shard's vertex range.
func RunAt(sys rt.System, cfg Config, at rt.Where) Result {
	coll, only := at.Coll, at.Node
	g := cfg.G
	g.EnsureWeights()
	nodes := sys.Nodes()

	part := (g.N + nodes - 1) / nodes
	src := EffectiveSource(g, cfg.Source)
	dist := sys.Space().Alloc(g.N)
	dist.Fill(Inf)
	if sys.Space().Hosts(dist.Owner(uint64(src))) { // the source's owner alone holds its cell
		dist.Store(uint64(src), 0)
	}

	st := &state{
		next:    make([][]uint32, nodes),
		pending: make([]map[uint32]bool, nodes),
	}
	for i := range st.pending {
		st.pending[i] = make(map[uint32]bool)
	}

	// relax handler: runs serialized on the owner's network thread.
	relax := sys.RegisterAM(func(node int, a, b uint64) {
		v, nd := a, b
		if nd < dist.Load(v) {
			dist.Store(v, nd)
			if !st.pending[node][uint32(v)] {
				st.pending[node][uint32(v)] = true
				st.next[node] = append(st.next[node], uint32(v))
			}
		}
	})

	frontier := make([][]uint32, nodes)
	frontier[src/part] = []uint32{uint32(src)}

	grid := make([]int, nodes)
	t0 := sys.VirtualTimeNs()
	steps := 0
	for {
		local := 0
		for i := range frontier {
			grid[i] = 0
			if at.Runs(i) {
				grid[i] = len(frontier[i])
				local += grid[i]
			}
		}
		total, err := rt.AllReduce(coll, fmt.Sprintf("sssp:front:%d", steps), rt.WorldTeam, rt.OpSum, uint64(local))
		if err != nil {
			panic(err)
		}
		if total == 0 || (cfg.MaxSteps > 0 && steps >= cfg.MaxSteps) {
			break
		}
		steps++

		sys.Step("sssp-relax", grid, 0, func(c rt.Ctx) {
			wg := c.Group()
			f := frontier[c.Node()]
			counts := make([]int, wg.Size)
			du := make([]uint64, wg.Size)
			dst := make([]int, wg.Size)
			a := make([]uint64, wg.Size)
			b := make([]uint64, wg.Size)
			wg.VectorN(2, func(l int) {
				u := f[wg.GlobalID(l)]
				counts[l] = g.Deg(int(u))
				du[l] = dist.Load(uint64(u))
			})
			wg.PredicatedLoop(counts, 4, func(i int, active []bool) {
				wg.VectorMasked(3, active, func(l int) {
					u := int(f[wg.GlobalID(l)])
					e := g.Off[u] + int64(i)
					v := g.Adj[e]
					dst[l] = int(v) / part
					a[l] = uint64(v)
					b[l] = du[l] + uint64(g.W[e])
				})
				// Each lane walks a different edge list: divergent loads.
				wg.ChargeMemDivergence(wg.ActiveLaneCount())
				c.AM(relax, dst, a, b, active)
			})
		})

		// Host: swap frontiers (charged as host serial time).
		sys.ChargeHost(2000)
		for i := 0; i < nodes; i++ {
			frontier[i] = st.next[i]
			st.next[i] = nil
			clear(st.pending[i])
		}
	}
	ns := sys.VirtualTimeNs() - t0

	// Scan the final distances: the full range in a single-process run,
	// only the owned shard in a distributed one (other shards' replica
	// entries are stale — their owners hold the real values).
	lo, hi := uint64(0), uint64(g.N)
	if !at.Full() {
		lo = uint64(only * part)
		hi = lo + uint64(part)
		if hi > uint64(g.N) {
			hi = uint64(g.N)
		}
		if lo > hi {
			lo = hi
		}
	}
	h := fnv.New64a()
	var buf [8]byte
	var reached int64
	var sum uint64
	for v := lo; v < hi; v++ {
		d := dist.Load(v)
		if d != Inf {
			reached++
			sum += d
		}
		putU64(buf[:], d)
		h.Write(buf[:])
	}
	return Result{
		Ns:         ns,
		Reached:    reached,
		Supersteps: steps,
		Checksum:   h.Sum64(),
		DistSum:    sum,
	}
}

// Reference computes shortest-path distances sequentially (Dijkstra-free
// Bellman-Ford over levels) for verification.
func Reference(g *graph.Graph, source int) []uint64 {
	g.EnsureWeights()
	source = EffectiveSource(g, source)
	dist := make([]uint64, g.N)
	for i := range dist {
		dist[i] = Inf
	}
	dist[source] = 0
	frontier := []uint32{uint32(source)}
	inNext := make(map[uint32]bool)
	for len(frontier) > 0 {
		var next []uint32
		for _, u := range frontier {
			du := dist[u]
			for i := g.Off[u]; i < g.Off[u+1]; i++ {
				v := g.Adj[i]
				nd := du + uint64(g.W[i])
				if nd < dist[v] {
					dist[v] = nd
					if !inNext[v] {
						inNext[v] = true
						next = append(next, v)
					}
				}
			}
		}
		frontier = next
		clear(inNext)
	}
	return dist
}

func putU64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

// ChecksumDists hashes a distance vector the same way Run does, so
// Reference output can be compared to Result.Checksum.
func ChecksumDists(dist []uint64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, d := range dist {
		putU64(buf[:], d)
		h.Write(buf[:])
	}
	return h.Sum64()
}
