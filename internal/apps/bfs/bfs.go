// Package bfs implements direction-optimizing breadth-first search
// over a block-partitioned graph — the registry's showcase for the
// PGAS signal verbs. Sparse frontiers run top-down: each frontier
// vertex relaxes its out-edges with active messages to the target's
// owner, exactly like SSSP. Dense frontiers flip to bottom-up: every
// owner broadcasts its frontier membership into per-node replica
// arrays with signalled puts (rt.Ctx.PutSignal), and the scanning
// work-groups wait on their node's cumulative arrival counter
// (rt.Ctx.WaitUntil) before probing the replicas — sender and scanner
// work-groups share one kernel launch, so the flip needs no extra
// global quiescence round.
//
// The direction decision (frontier larger than N/8 goes bottom-up)
// depends only on the globally agreed frontier size, so every process
// of a distributed run takes the same branch and the level assignment
// is bit-identical to the single-process run.
package bfs

import (
	"fmt"
	"hash/fnv"

	"gravel/internal/ckpt"
	"gravel/internal/graph"
	"gravel/internal/pgas"
	"gravel/internal/rt"
)

// Inf is the level of unreached vertices.
const Inf = uint64(1) << 62

// Config parameterizes a BFS run.
type Config struct {
	G *graph.Graph
	// Source is the search root; an isolated source falls forward to
	// the next vertex with edges (same rule as sssp.EffectiveSource).
	Source int
	// DenseFrac flips to bottom-up when frontier > N*DenseFrac
	// (0 = the default 1/8).
	DenseFrac float64
	// MaxLevels bounds the level count (0 = unlimited).
	MaxLevels int
}

func (c Config) denseFrac() float64 {
	if c.DenseFrac <= 0 {
		return 1.0 / 8.0
	}
	return c.DenseFrac
}

// Result reports a BFS run.
type Result struct {
	Ns      float64
	Reached int64
	// Levels is the number of level-synchronous rounds executed;
	// BottomUp counts how many of them ran in the bottom-up direction.
	Levels, BottomUp int
	// LevelSum is the sum of finite levels (additive across shards).
	LevelSum uint64
	// Checksum is an FNV-1a hash over the scanned level range.
	Checksum uint64
	// Err reports a checkpoint restore or save that failed.
	Err error
}

// state is the per-run frontier state shared between the visit handler
// (network threads) and the host loop; each node's handler only touches
// its own entry and the host only reads between rounds.
type state struct {
	next    [][]uint32
	pending []map[uint32]bool
}

// Run executes BFS on the given system.
func Run(sys rt.System, cfg Config) Result {
	return RunAt(sys, cfg, rt.Whole())
}

// RunAt is BFS: at says which node's shard this call launches. The
// level-synchronous direction/termination decision — the global
// frontier size — goes through at.Coll, so every process agrees on both
// the round count and the traversal direction of every round. LevelSum
// and Reached sum across shards to the whole run's values; Checksum
// covers only the shard's vertex range.
//
// With at.Ckpt set the shard saves its owned level range plus its next
// frontier after a round's frontier swap, and resumes at a restore
// point's round (payloads are keyed by the saving epoch's block
// partition: same node count only). The bottom-up arrival counters are
// NOT part of the payload — a fresh epoch's cumulative counters restart
// at zero, and the level-tagged replica arrays make zeroed replicas
// indistinguishable from never-broadcast ones. Results are
// bit-identical to an undisturbed run; a restore or save that fails is
// the Result's Err.
func RunAt(sys rt.System, cfg Config, at rt.Where) Result {
	if err := at.Err(); err != nil {
		return Result{Err: err}
	}
	ck, coll, only := at.Ckpt, at.Coll, at.Node
	g := cfg.G
	nodes := sys.Nodes()
	part := (g.N + nodes - 1) / nodes
	src := effectiveSource(g, cfg.Source)

	// Symmetric state must be allocated in the same order by every
	// process (IDs and offsets are positional); the distributed entry
	// point verifies the invariant before the first signal flies.
	level := sys.Space().Alloc(g.N)
	rep := sys.Space().SymAlloc(g.N)    // level-tagged frontier replicas, one set per node
	arrivals := sys.Space().SymAlloc(1) // cumulative broadcast counter, one cell per node
	if err := rt.VerifySymmetric(coll, sys.Space(), "bfs"); err != nil {
		panic(err)
	}
	level.Fill(Inf)
	if sys.Space().Hosts(level.Owner(uint64(src))) { // the source's owner alone holds its cell
		level.Store(uint64(src), 0)
	}

	st := &state{
		next:    make([][]uint32, nodes),
		pending: make([]map[uint32]bool, nodes),
	}
	for i := range st.pending {
		st.pending[i] = make(map[uint32]bool)
	}

	// visit handler: first writer of a vertex's level enqueues it on the
	// owner's next frontier. Runs serialized on the owner's network
	// thread; levels only decrease (and each vertex is discovered at one
	// level), so application order cannot change the result.
	visit := sys.RegisterAM(func(node int, a, b uint64) {
		v, lv := a, b
		if lv < level.Load(v) {
			level.Store(v, lv)
			if !st.pending[node][uint32(v)] {
				st.pending[node][uint32(v)] = true
				st.next[node] = append(st.next[node], uint32(v))
			}
		}
	})

	frontier := make([][]uint32, nodes)
	frontier[src/part] = []uint32{uint32(src)}

	dense := int(float64(g.N) * cfg.denseFrac())
	levels, bottomUps := 0, 0
	if len(ck.Resume) > 0 {
		fr, lvl, bu, err := decodeShard(level, only, ck.Resume)
		if err != nil {
			return Result{Err: err}
		}
		levels, bottomUps = lvl, bu
		for i := range frontier {
			frontier[i] = nil
		}
		frontier[only] = fr
	}
	if ck.Active() {
		sys.Step("bfs-start-sync", make([]int, nodes), 0, func(rt.Ctx) {})
	}

	t0 := sys.VirtualTimeNs()
	cumSignals := uint64(0) // signals every node has been promised THIS EPOCH
	for {
		local := 0
		for i := range frontier {
			if at.Runs(i) {
				local += len(frontier[i])
			}
		}
		total, err := rt.AllReduce(coll, fmt.Sprintf("bfs:front:%d", levels), rt.WorldTeam, rt.OpSum, uint64(local))
		if err != nil {
			panic(err)
		}
		if total == 0 || (cfg.MaxLevels > 0 && levels >= cfg.MaxLevels) {
			break
		}
		lv := uint64(levels + 1) // level being assigned, and this round's replica tag
		levels++

		if int(total) > dense {
			// Bottom-up: every owner broadcasts its frontier into all
			// nodes' replica sets; every node then scans its unvisited
			// vertices against its local replicas. Each broadcast is one
			// PUT_SIGNAL per (frontier vertex, destination node), so after
			// this round each node's cumulative counter must have received
			// exactly total more signals.
			bottomUps++
			cumSignals += total
			runBottomUp(sys, g, only, part, frontier, level, rep, arrivals, visit, lv, cumSignals)
		} else {
			runTopDown(sys, g, only, part, frontier, level, visit, lv)
		}

		// Host: swap frontiers (charged as host serial time).
		sys.ChargeHost(2000)
		for i := 0; i < nodes; i++ {
			frontier[i] = st.next[i]
			st.next[i] = nil
			clear(st.pending[i])
		}

		// Round boundary: the step barrier above proved quiescence, so
		// levels and frontiers form a consistent cut. The round count is
		// globally agreed (it is driven by the all-reduced frontier
		// size), so every shard saves the same rounds.
		if ck.Due(levels) {
			if err := ck.Save(uint64(levels), encodeShard(level, only, levels, bottomUps, frontier[only])); err != nil {
				return Result{Err: err}
			}
			// Quiet save window: no worker may start the next round
			// (whose visit AMs land in peers' level ranges) until every
			// worker has encoded its payload.
			sys.Step("bfs-ckpt-sync", make([]int, nodes), 0, func(rt.Ctx) {})
		}
	}
	ns := sys.VirtualTimeNs() - t0

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
		d := level.Load(v)
		if d != Inf {
			reached++
			sum += d
		}
		putU64(buf[:], d)
		h.Write(buf[:])
	}
	return Result{
		Ns:       ns,
		Reached:  reached,
		Levels:   levels,
		BottomUp: bottomUps,
		LevelSum: sum,
		Checksum: h.Sum64(),
	}
}

// encodeShard builds node's checkpoint payload: the completed round and
// bottom-up counts, the owned level range and its values, and the
// node's next frontier.
func encodeShard(level *pgas.Array, node, levels, bottomUps int, frontier []uint32) []byte {
	lo, hi := level.LocalRange(node)
	p := ckpt.EncodeU64s(
		[]uint64{uint64(levels), uint64(bottomUps), uint64(lo), uint64(hi - lo), uint64(len(frontier))},
		(hi-lo)+len(frontier))
	for _, v := range level.Local(node) {
		p = ckpt.AppendU64(p, v)
	}
	for _, u := range frontier {
		p = ckpt.AppendU64(p, uint64(u))
	}
	return p
}

// decodeShard replays the node's own payload into its level range and
// returns the saved frontier and round counts. Only the owned range is
// restored: visit AMs route to the vertex owner, so each shard's
// replica holds exactly its own range's discoveries. Same node count
// only — shard `node` must cover exactly this node's range.
func decodeShard(level *pgas.Array, node int, shards [][]byte) ([]uint32, int, int, error) {
	if node >= len(shards) {
		return nil, 0, 0, fmt.Errorf("bfs: restore has %d shards, node %d needs its own", len(shards), node)
	}
	w, err := ckpt.DecodeShard(shards[node], 5, 2)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("bfs: shard %d: %w", node, err)
	}
	lo, hi := level.LocalRange(node)
	if int(w[2]) != lo || int(w[3]) != hi-lo {
		return nil, 0, 0, fmt.Errorf("bfs: shard %d saved range [%d,+%d), own range is [%d,+%d) — node count changed?",
			node, w[2], w[3], lo, hi-lo)
	}
	for j, v := range w[5 : 5+int(w[3])] {
		level.Store(uint64(lo+j), v)
	}
	frontier := make([]uint32, w[4])
	for j, v := range w[5+int(w[3]):] {
		frontier[j] = uint32(v)
	}
	return frontier, int(w[0]), int(w[1]), nil
}

// runTopDown relaxes the frontier's out-edges with active messages —
// the classic sparse direction (identical in structure to sssp).
func runTopDown(sys rt.System, g *graph.Graph, only, part int, frontier [][]uint32,
	level *pgas.Array, visit uint8, lv uint64) {
	nodes := sys.Nodes()
	grid := make([]int, nodes)
	for i := range frontier {
		if only >= 0 && i != only {
			continue
		}
		grid[i] = len(frontier[i])
	}
	sys.Step("bfs-topdown", grid, 0, func(c rt.Ctx) {
		wg := c.Group()
		f := frontier[c.Node()]
		counts := make([]int, wg.Size)
		dst := make([]int, wg.Size)
		a := make([]uint64, wg.Size)
		b := make([]uint64, wg.Size)
		wg.VectorN(2, func(l int) {
			counts[l] = g.Deg(int(f[wg.GlobalID(l)]))
		})
		wg.PredicatedLoop(counts, 4, func(i int, active []bool) {
			wg.VectorMasked(3, active, func(l int) {
				u := int(f[wg.GlobalID(l)])
				v := g.Adj[g.Off[u]+int64(i)]
				dst[l] = int(v) / part
				a[l] = uint64(v)
				b[l] = lv
			})
			wg.ChargeMemDivergence(wg.ActiveLaneCount())
			c.AM(visit, dst, a, b, active)
		})
	})
}

// runBottomUp is the dense direction, one kernel launch per node:
// the first len(frontier) work-items broadcast frontier membership with
// signalled puts (lower work-group IDs, so no wait depends on a later
// work-group of the same grid), the remaining part-sized range of
// work-items waits for the cluster-wide broadcast to complete and then
// probes its unvisited vertices' neighbors against the local replicas.
func runBottomUp(sys rt.System, g *graph.Graph, only, part int, frontier [][]uint32,
	level, rep, arrivals *pgas.Array, visit uint8, lv, cumSignals uint64) {
	nodes := sys.Nodes()
	grid := make([]int, nodes)
	sendN := make([]int, nodes)
	lof := make([]int, nodes)
	for i := 0; i < nodes; i++ {
		if only >= 0 && i != only {
			continue
		}
		sendN[i] = len(frontier[i])
		lof[i] = i * part
		span := g.N - lof[i]
		if span > part {
			span = part
		}
		if span < 0 {
			span = 0
		}
		grid[i] = sendN[i] + span
	}
	sys.Step("bfs-bottomup", grid, 0, func(c rt.Ctx) {
		wg := c.Group()
		me := c.Node()
		f := frontier[me]
		send := sendN[me]
		lo := lof[me]

		idx := make([]uint64, wg.Size)
		val := make([]uint64, wg.Size)
		sig := make([]uint64, wg.Size)
		mask := make([]bool, wg.Size)

		// Broadcast lanes: one signalled put per destination node, all
		// sender lanes of the WG advancing together.
		anySend := false
		for l := 0; l < wg.Size; l++ {
			mask[l] = wg.GlobalID(l) < send
			anySend = anySend || mask[l]
		}
		if anySend {
			for d := 0; d < nodes; d++ {
				wg.VectorMasked(2, mask, func(l int) {
					u := uint64(f[wg.GlobalID(l)])
					idx[l] = rep.SymIndex(d, int(u))
					val[l] = lv
					sig[l] = arrivals.SymIndex(d, 0)
				})
				c.PutSignal(rep, idx, val, arrivals, sig, mask)
			}
		}

		// Scan lanes: vertices lo+off for off = gid-send. Wait until the
		// whole cluster's broadcast has landed (the counter is cumulative
		// across bottom-up rounds), then probe neighbors for the tag.
		counts := make([]int, wg.Size)
		vtx := make([]uint64, wg.Size)
		found := make([]bool, wg.Size)
		anyScan := false
		for l := 0; l < wg.Size; l++ {
			counts[l] = 0
			gid := wg.GlobalID(l)
			mask[l] = gid >= send && gid-send < grid[me]-send
			if !mask[l] {
				continue
			}
			anyScan = true
			vtx[l] = uint64(lo + gid - send)
		}
		if !anyScan {
			return
		}
		for l := 0; l < wg.Size; l++ {
			sig[l] = arrivals.SymIndex(me, 0)
			val[l] = cumSignals
		}
		c.WaitUntil(arrivals, sig, val, mask)

		wg.VectorMasked(2, mask, func(l int) {
			if level.Load(vtx[l]) == Inf {
				counts[l] = g.Deg(int(vtx[l]))
			}
			found[l] = false
		})
		wg.PredicatedLoop(counts, 3, func(i int, active []bool) {
			wg.VectorMasked(2, active, func(l int) {
				if found[l] {
					return
				}
				u := g.Adj[g.Off[int64(vtx[l])]+int64(i)]
				if rep.Load(rep.SymIndex(me, int(u))) == lv {
					found[l] = true
				}
			})
			wg.ChargeMemDivergence(wg.ActiveLaneCount())
		})

		// Claim discovered vertices through the owner's network thread —
		// the same serialized visit path the top-down direction uses, so
		// frontier construction is identical either way.
		any := false
		dst := make([]int, wg.Size)
		b := make([]uint64, wg.Size)
		for l := 0; l < wg.Size; l++ {
			mask[l] = mask[l] && found[l]
			any = any || mask[l]
			dst[l] = me
			idx[l] = vtx[l]
			b[l] = lv
		}
		if any {
			c.AM(visit, dst, idx, b, mask)
		}
	})
}

// effectiveSource resolves the root Run actually uses: src itself if it
// has out-edges, else the first later vertex that does.
func effectiveSource(g *graph.Graph, src int) int {
	for v := src; v < g.N; v++ {
		if g.Deg(v) > 0 {
			return v
		}
	}
	return src
}

// Reference computes BFS levels sequentially for verification.
func Reference(g *graph.Graph, source int) []uint64 {
	source = effectiveSource(g, source)
	level := make([]uint64, g.N)
	for i := range level {
		level[i] = Inf
	}
	level[source] = 0
	frontier := []uint32{uint32(source)}
	lv := uint64(0)
	for len(frontier) > 0 {
		lv++
		var next []uint32
		for _, u := range frontier {
			for _, v := range g.Out(int(u)) {
				if level[v] == Inf {
					level[v] = lv
					next = append(next, v)
				}
			}
		}
		frontier = next
	}
	return level
}

// ReferenceSum is the sum of finite reference levels — what the
// distributed shards' LevelSum values must add up to.
func ReferenceSum(g *graph.Graph, source int) uint64 {
	var sum uint64
	for _, d := range Reference(g, source) {
		if d != Inf {
			sum += d
		}
	}
	return sum
}

func putU64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}
