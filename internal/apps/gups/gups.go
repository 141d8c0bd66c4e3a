// Package gups implements the GUPS (giga-updates per second)
// micro-benchmark of §3 [24]: a distributed table A is atomically
// incremented at random offsets. Every update is an 8-byte fine-grain
// atomic routed through the owner's network thread, making GUPS the
// paper's purest stress test of message aggregation.
//
// The package also provides GUPS-mod (§8.2): a variant where each
// work-item performs a random number of updates and 95 % of work-items
// perform none, used to evaluate diverged WG-level operations.
package gups

import (
	"fmt"

	"gravel/internal/ckpt"
	"gravel/internal/graph"
	"gravel/internal/pgas"
	"gravel/internal/rt"
)

// Config parameterizes a GUPS run.
type Config struct {
	// TableSize is the global element count of the distributed table A.
	TableSize int
	// UpdatesPerNode is the number of updates each node initiates.
	UpdatesPerNode int
	// Seed makes the update stream deterministic.
	Seed uint64
	// Steps splits the updates into this many kernel launches
	// (default 1).
	Steps int
}

// Result reports a GUPS run.
type Result struct {
	// Ns is the virtual time consumed.
	Ns float64
	// Updates is the total update count across nodes.
	Updates int64
	// GUPS is giga-updates per second of virtual time.
	GUPS float64
	// Sum is the table sum after the run (must equal Updates).
	Sum uint64
	// Err reports a checkpoint restore or save that failed.
	Err error
}

// Run executes GUPS on the given system, launching on every node.
func Run(sys rt.System, cfg Config) Result {
	return RunAt(sys, cfg, rt.Whole())
}

// RunAt is GUPS: at says which node's share of the update stream this
// call launches. The stream is derived from the initiating node's ID,
// so the union over a cluster's processes is exactly the whole run and
// the per-process table sums add up to its Sum.
//
// With at.Ckpt set (a shard run only; the stream's per-node counts make
// a restore point valid only at the node count that saved it, and its
// payloads must cover the whole table) the run restores the table and
// resumes at the first unfinished step, and saves this shard's slice of
// the table at the step barriers at.Ckpt names. The final Sum is
// bit-identical to an undisturbed run of the same Config; a restore or
// save that fails is the Result's Err.
func RunAt(sys rt.System, cfg Config, at rt.Where) Result {
	if cfg.Steps <= 0 {
		cfg.Steps = 1
	}
	n := sys.Nodes()
	A := sys.Space().Alloc(cfg.TableSize)
	perStep := cfg.UpdatesPerNode / cfg.Steps
	ck := at.Ckpt

	if err := at.Err(); err != nil {
		return Result{Err: err}
	}
	start := 0
	if len(ck.Resume) > 0 {
		step, err := restoreTable(A, at.Node, ck.Resume)
		if err != nil {
			return Result{Err: err}
		}
		start = int(step)
	}
	if ck.Active() {
		sys.Step("gups-start-sync", make([]int, n), 0, func(rt.Ctx) {})
	}

	t0 := sys.VirtualTimeNs()
	grid := make([]int, n)
	for i := range grid {
		if at.Runs(i) {
			grid[i] = perStep
		}
	}
	for s := start; s < cfg.Steps; s++ {
		step := s
		sys.Step("gups", grid, 0, func(c rt.Ctx) {
			g := c.Group()
			idx := make([]uint64, g.Size)
			one := make([]uint64, g.Size)
			node := uint64(c.Node())
			// Each lane draws one random offset (B[GRID_ID] in Figure 4b)
			// and increments A there.
			g.VectorN(2, func(l int) {
				gid := uint64(g.GlobalID(l)) + uint64(step)*uint64(perStep)
				idx[l] = graph.Hash64(cfg.Seed^node<<40^gid) % uint64(cfg.TableSize)
				one[l] = 1
			})
			c.Inc(A, idx, one, nil)
		})
		if ck.Due(s+1) && s+1 < cfg.Steps {
			if err := ck.Save(uint64(s+1), EncodeShard(A, at.Node, uint64(s+1))); err != nil {
				return Result{Err: err}
			}
			// Quiet save window: no worker may start step s+1 (whose
			// increments land in peers' replicas) until every worker has
			// encoded its payload — otherwise the cut is polluted and a
			// restore double-applies the in-flight updates.
			sys.Step("gups-ckpt-sync", make([]int, n), 0, func(rt.Ctx) {})
		}
	}

	ns := sys.VirtualTimeNs() - t0
	launched := int64(n)
	if !at.Full() {
		launched = 1
	}
	updates := int64(perStep) * int64(cfg.Steps) * launched
	return Result{
		Ns:      ns,
		Updates: updates,
		GUPS:    float64(updates) / ns,
		Sum:     A.Sum(),
	}
}

// EncodeShard builds node's checkpoint payload: the step the shard has
// completed, the global range it owns, and the owned table values.
func EncodeShard(A *pgas.Array, node int, step uint64) []byte {
	lo, hi := A.LocalRange(node)
	p := ckpt.EncodeU64s([]uint64{step, uint64(lo), uint64(hi - lo)}, hi-lo)
	for _, v := range A.Local(node) {
		p = ckpt.AppendU64(p, v)
	}
	return p
}

// restoreTable replays the node's own saved values into A and returns
// the step the checkpoint was taken at. Only the owned range is
// restored: in a distributed run each process's replica holds exactly
// the updates that landed on elements it owns (remote increments route
// to the owner), and the per-shard Sum checksums must keep adding up
// to the cluster total after a restore. Same node count only — shard
// `node` of the checkpoint must cover exactly this node's range.
func restoreTable(A *pgas.Array, node int, shards [][]byte) (uint64, error) {
	if node >= len(shards) {
		return 0, fmt.Errorf("gups: restore has %d shards, node %d needs its own", len(shards), node)
	}
	w, err := ckpt.DecodeShard(shards[node], 3, 1)
	if err != nil {
		return 0, fmt.Errorf("gups: shard %d: %w", node, err)
	}
	lo, hi := A.LocalRange(node)
	if int(w[1]) != lo || int(w[2]) != hi-lo {
		return 0, fmt.Errorf("gups: shard %d saved range [%d,+%d), own range is [%d,+%d) — node count changed?",
			node, w[1], w[2], lo, hi-lo)
	}
	for j, v := range w[3:] {
		if v != 0 {
			A.Store(uint64(lo+j), v)
		}
	}
	return w[0], nil
}

// ModConfig parameterizes GUPS-mod (§8.2).
type ModConfig struct {
	TableSize int
	// WIsPerNode is the number of work-items launched per node; ~5 % of
	// them perform 1-8 updates, the rest perform none.
	WIsPerNode int
	Seed       uint64
}

// ModResult reports a GUPS-mod run.
type ModResult struct {
	Ns      float64
	Updates int64
	Sum     uint64
}

// RunMod executes GUPS-mod on every node.
func RunMod(sys rt.System, cfg ModConfig) ModResult {
	return RunModAt(sys, cfg, rt.Whole())
}

// RunModAt is GUPS-mod: a predicated loop in which lane l performs
// counts[l] updates, exercising diverged WG-level message offload. A
// shard's table Sum adds up across shards to the whole run's, while
// Updates is the global expected count (identical in every process).
func RunModAt(sys rt.System, cfg ModConfig, at rt.Where) ModResult {
	n := sys.Nodes()
	A := sys.Space().Alloc(cfg.TableSize)

	t0 := sys.VirtualTimeNs()
	grid := make([]int, n)
	for i := range grid {
		if at.Runs(i) {
			grid[i] = cfg.WIsPerNode
		}
	}
	sys.Step("gups-mod", grid, 0, func(c rt.Ctx) {
		g := c.Group()
		counts := make([]int, g.Size)
		idx := make([]uint64, g.Size)
		one := make([]uint64, g.Size)
		node := uint64(c.Node())
		g.VectorN(2, func(l int) {
			gid := uint64(g.GlobalID(l))
			h := graph.Hash64(cfg.Seed ^ node<<40 ^ gid)
			if h%33 == 0 { // ~3% of WIs are active (§8.2: most WIs idle)
				counts[l] = 1 + int((h>>8)%8)
			}
			one[l] = 1
		})
		g.PredicatedLoop(counts, 4, func(i int, active []bool) {
			g.VectorMasked(1, active, func(l int) {
				gid := uint64(g.GlobalID(l))
				idx[l] = graph.Hash64(cfg.Seed^node<<40^gid<<8^uint64(i)) % uint64(cfg.TableSize)
			})
			c.Inc(A, idx, one, active)
		})
	})

	var updates int64
	for i := 0; i < n; i++ {
		for w := 0; w < cfg.WIsPerNode; w++ {
			h := graph.Hash64(cfg.Seed ^ uint64(i)<<40 ^ uint64(w))
			if h%33 == 0 {
				updates += int64(1 + int((h>>8)%8))
			}
		}
	}
	return ModResult{Ns: sys.VirtualTimeNs() - t0, Updates: updates, Sum: A.Sum()}
}
