// Package histogram implements a distributed histogram — the
// registry's collectives showcase. Phase one is classic Gravel:
// every node hashes its deterministic sample stream into a
// block-partitioned bucket table with fine-grain remote increments.
// Phase two summarizes the table two ways at once: on the device with
// rt.DeviceColl (barrier, then sum/min/max all-reductions built from
// PutSignal/WaitUntil — no host round trip), and on the host with
// rt.Collectives team reductions (the low and high halves of the
// cluster each fold their bucket extremes over the coordinator).
// Both answers are derived from the same table, so they cross-check
// each other and the run self-verifies.
package histogram

import (
	"fmt"

	"gravel/internal/ckpt"
	"gravel/internal/graph"
	"gravel/internal/rt"
)

// Config parameterizes a histogram run.
type Config struct {
	// SamplesPerNode is each node's sample count.
	SamplesPerNode int
	// Buckets is the table size (block-partitioned across nodes).
	Buckets int
	// Seed drives the deterministic sample stream.
	Seed uint64
}

// Result reports a histogram run.
type Result struct {
	Ns float64
	// Samples is the cluster-wide sample count as computed by the
	// device all-reduce (must equal nodes*SamplesPerNode).
	Samples uint64
	// MinBucket and MaxBucket are the cluster-wide bucket-count
	// extremes, computed on the device.
	MinBucket, MaxBucket uint64
	// Check is the additive shard checksum.
	Check uint64
	// Err reports a failed self-verification, or a checkpoint restore or
	// save that failed.
	Err error
}

// Run executes the histogram on every node of the system.
func Run(sys rt.System, cfg Config) Result {
	return RunAt(sys, cfg, rt.Whole())
}

// bucketOf is the deterministic sample stream: sample s of node n.
func bucketOf(cfg Config, node, s int) uint64 {
	return graph.Hash64(cfg.Seed^uint64(node)<<40^uint64(s)) % uint64(cfg.Buckets)
}

// teams splits the cluster into a low and a high half for the host
// team reductions; a cluster too small to split uses the world team
// for both (team collectives degrade gracefully to world ones).
func teams(nodes int) (low, high rt.Team) {
	if nodes < 2 {
		return rt.WorldTeam, rt.WorldTeam
	}
	half := nodes / 2
	lo := make([]int, half)
	hi := make([]int, nodes-half)
	for i := 0; i < half; i++ {
		lo[i] = i
	}
	for i := half; i < nodes; i++ {
		hi[i-half] = i
	}
	return rt.TeamOf(lo...), rt.TeamOf(hi...)
}

// RunAt is the histogram: at says which node's shard this call
// launches; the host team reductions go through at.Coll.
//
// The app's only mutable distributed state is the bucket table, fully
// built by phase one, so with at.Ckpt set there is exactly one cut (its
// Every is not read): each shard saves its owned bucket range at the
// quiescent barrier after "hist-count", and a restored run skips the
// counting phase and goes straight to the collective summaries (whose
// symmetric scratch restarts cleanly in a fresh epoch). Payloads are
// keyed by the saving epoch's bucket partition: same node count only.
// Results are bit-identical to an undisturbed run; a restore or save
// that fails is the Result's Err, as is a failed self-verification.
func RunAt(sys rt.System, cfg Config, at rt.Where) Result {
	if err := at.Err(); err != nil {
		return Result{Err: err}
	}
	ck, coll, only := at.Ckpt, at.Coll, at.Node
	nodes := sys.Nodes()

	counts := sys.Space().Alloc(cfg.Buckets)
	dres := sys.Space().SymAlloc(3) // device results: samples, min, max (one copy per node)
	dc := rt.NewDeviceColl(sys.Space(), nodes, rt.WorldTeam)
	if err := rt.VerifySymmetric(coll, sys.Space(), "hist"); err != nil {
		panic(err)
	}

	restored := len(ck.Resume) > 0
	if restored {
		if _, err := ckpt.RestoreRange(counts, only, ck.Resume); err != nil {
			return Result{Err: fmt.Errorf("histogram: %w", err)}
		}
	}
	if ck.Active() {
		sys.Step("hist-start-sync", make([]int, nodes), 0, func(rt.Ctx) {})
	}

	grid := make([]int, nodes)
	for i := 0; i < nodes; i++ {
		if at.Runs(i) {
			grid[i] = cfg.SamplesPerNode
		}
	}

	t0 := sys.VirtualTimeNs()

	// Phase 1: fine-grain remote increments into the bucket table. A
	// restored run's table was rebuilt from the cut; re-counting would
	// double every bucket.
	if !restored {
		sys.Step("hist-count", grid, 0, func(c rt.Ctx) {
			wg := c.Group()
			me := c.Node()
			idx := make([]uint64, wg.Size)
			one := make([]uint64, wg.Size)
			wg.VectorN(3, func(l int) {
				idx[l] = bucketOf(cfg, me, wg.GlobalID(l))
				one[l] = 1
			})
			c.Inc(counts, idx, one, nil)
		})
		if ck.Save != nil {
			if err := ck.Save(1, ckpt.EncodeRange(counts, only, 1)); err != nil {
				return Result{Err: err}
			}
			// Quiet save window: no worker may enter the summary phase
			// until every worker has encoded its payload.
			sys.Step("hist-ckpt-sync", make([]int, nodes), 0, func(rt.Ctx) {})
		}
	}

	// Phase 2: device collectives — one work-group per node. Each node
	// folds its owned bucket range locally, then the team barrier and
	// three all-reductions (sum of samples, min and max bucket count) run
	// entirely on the fabric; every node stores the agreed results in
	// its own symmetric result cells.
	for i := range grid {
		grid[i] = 0
		if at.Runs(i) {
			grid[i] = 1
		}
	}
	sys.Step("hist-coll", grid, 0, func(c rt.Ctx) {
		me := c.Node()
		lo, hi := counts.LocalRange(me)
		localSum, localMin, localMax := uint64(0), rt.OpMin.Identity(), rt.OpMax.Identity()
		for b := lo; b < hi; b++ {
			v := counts.Load(uint64(b))
			localSum += v
			localMin = rt.OpMin.Combine(localMin, v)
			localMax = rt.OpMax.Combine(localMax, v)
		}
		c.Group().ChargeInstr(hi - lo)

		dc.Barrier(c)
		total := dc.AllReduce(c, rt.OpSum, localSum)
		mn := dc.AllReduce(c, rt.OpMin, localMin)
		mx := dc.AllReduce(c, rt.OpMax, localMax)
		dres.Store(dres.SymIndex(me, 0), total)
		dres.Store(dres.SymIndex(me, 1), mn)
		dres.Store(dres.SymIndex(me, 2), mx)
	})
	ns := sys.VirtualTimeNs() - t0

	// Host team reductions: each half of the cluster folds its members'
	// bucket extremes over the coordinator. The single-process run owns
	// every member, so it folds the members' values itself and the nil
	// Collectives identity returns them unchanged — bit-identical to
	// the distributed fold.
	lowT, highT := teams(nodes)
	perNodeMin := func(n int) uint64 {
		lo, hi := counts.LocalRange(n)
		m := rt.OpMin.Identity()
		for b := lo; b < hi; b++ {
			m = rt.OpMin.Combine(m, counts.Load(uint64(b)))
		}
		return m
	}
	teamMin := func(key string, team rt.Team) uint64 {
		contrib := rt.OpMin.Identity()
		if at.Full() {
			for _, m := range team.Members(nodes) {
				contrib = rt.OpMin.Combine(contrib, perNodeMin(m))
			}
		} else {
			contrib = perNodeMin(only)
		}
		v, err := rt.AllReduce(coll, key, team, rt.OpMin, contrib)
		if err != nil {
			panic(err)
		}
		return v
	}
	var lowMin, highMin uint64
	handled := func(team rt.Team) bool { return at.Full() || team.Contains(only) }
	if handled(lowT) {
		lowMin = teamMin("hist:low:min", lowT)
	}
	if handled(highT) {
		highMin = teamMin("hist:high:min", highT)
	}

	// Every node holds the same device results; read back this shard's.
	probe := 0
	if !at.Full() {
		probe = only
	}
	res := Result{
		Ns:        ns,
		Samples:   dres.Load(dres.SymIndex(probe, 0)),
		MinBucket: dres.Load(dres.SymIndex(probe, 1)),
		MaxBucket: dres.Load(dres.SymIndex(probe, 2)),
	}

	// Additive checksum: each shard contributes its owned bucket range
	// plus a per-node mix of the (cluster-agreed) device results; the
	// lowest-ranked member of each team additionally folds in its
	// team's host-reduced minimum. Shard checks therefore sum to the
	// full-run check.
	check := uint64(0)
	addNode := func(n int) {
		lo, hi := counts.LocalRange(n)
		for b := lo; b < hi; b++ {
			check += counts.Load(uint64(b))
		}
		check += mix(dres.Load(dres.SymIndex(n, 0)) ^ dres.Load(dres.SymIndex(n, 1)) ^ dres.Load(dres.SymIndex(n, 2)) ^ uint64(n))
		if lowT.Members(nodes)[0] == n {
			check += mix(lowMin ^ 0x10)
		}
		if highT.Members(nodes)[0] == n {
			check += mix(highMin ^ 0x20)
		}
	}
	if at.Full() {
		for n := 0; n < nodes; n++ {
			addNode(n)
		}
	} else {
		addNode(only)
	}
	res.Check = check

	// Self-verification: the device sum must equal the sample count,
	// and min <= max with min matching the host team folds' floor.
	want := uint64(nodes) * uint64(cfg.SamplesPerNode)
	if res.Samples != want {
		res.Err = fmt.Errorf("histogram: device all-reduce sum %d != samples %d", res.Samples, want)
	} else if res.MinBucket > res.MaxBucket {
		res.Err = fmt.Errorf("histogram: device min %d > max %d", res.MinBucket, res.MaxBucket)
	}
	return res
}

// mix decorrelates checksum contributions (splitmix-style finalizer).
func mix(x uint64) uint64 { return graph.Hash64(x) }

// ExpectedCheck computes the full-run Check from a host-side reference
// histogram, for distributed total verification.
func ExpectedCheck(cfg Config, nodes int) uint64 {
	ref := make([]uint64, cfg.Buckets)
	for n := 0; n < nodes; n++ {
		for s := 0; s < cfg.SamplesPerNode; s++ {
			ref[bucketOf(cfg, n, s)]++
		}
	}
	part := (cfg.Buckets + nodes - 1) / nodes
	rangeOf := func(n int) (int, int) {
		lo := n * part
		hi := lo + part
		if hi > cfg.Buckets {
			hi = cfg.Buckets
		}
		if lo > hi {
			lo = hi
		}
		return lo, hi
	}
	nodeMin := func(n int) uint64 {
		lo, hi := rangeOf(n)
		m := rt.OpMin.Identity()
		for b := lo; b < hi; b++ {
			m = rt.OpMin.Combine(m, ref[b])
		}
		return m
	}
	total := uint64(nodes) * uint64(cfg.SamplesPerNode)
	mn, mx := rt.OpMin.Identity(), rt.OpMax.Identity()
	for n := 0; n < nodes; n++ {
		lo, hi := rangeOf(n)
		for b := lo; b < hi; b++ {
			mn = rt.OpMin.Combine(mn, ref[b])
			mx = rt.OpMax.Combine(mx, ref[b])
		}
	}
	lowT, highT := teams(nodes)
	fold := func(team rt.Team) uint64 {
		m := rt.OpMin.Identity()
		for _, mem := range team.Members(nodes) {
			m = rt.OpMin.Combine(m, nodeMin(mem))
		}
		return m
	}
	lowMin, highMin := fold(lowT), fold(highT)

	check := uint64(0)
	for n := 0; n < nodes; n++ {
		lo, hi := rangeOf(n)
		for b := lo; b < hi; b++ {
			check += ref[b]
		}
		check += mix(total ^ mn ^ mx ^ uint64(n))
		if lowT.Members(nodes)[0] == n {
			check += mix(lowMin ^ 0x10)
		}
		if highT.Members(nodes)[0] == n {
			check += mix(highMin ^ 0x20)
		}
	}
	return check
}
