package bench

import (
	"strconv"
	"time"

	"gravel/internal/core"
	"gravel/internal/fabric"
	"gravel/internal/harness"
	"gravel/internal/rt"
)

// ResolverShardCounts is the resolver-sweep bank axis.
var ResolverShardCounts = []int{1, 2, 4, 8}

// Resolver sweeps receive-side resolver sharding on the GUPS workload
// (the most network-bound Table 4 input): modeled and measured
// throughput at 1/2/4/8 banks per node, plus a saturation pair at 10x
// the sweep scale comparing serial resolution against the widest
// sharding. One shard is the paper's serial network thread (§6) —
// bit-identical to the unsharded runtime — so its row is the baseline
// every other row's speedup is relative to.
//
// extraShards, when a valid bank count not already on the axis, adds
// one more sweep point (the -resolver-shards flag value), so an
// operator can probe their own configuration.
func Resolver(scale float64, extraShards int) *Table {
	shardCounts := ResolverShardCounts
	if fabric.ValidBanks(extraShards) && extraShards > 1 {
		dup := false
		for _, s := range shardCounts {
			if s == extraShards {
				dup = true
				break
			}
		}
		if !dup {
			shardCounts = append(append([]int{}, shardCounts...), extraShards)
		}
	}
	t := &Table{
		Title:  "Resolver sweep: sharded receive-side resolution (GUPS, 4 nodes)",
		Header: []string{"config", "model ms", "model Mmsg/s", "wall ms", "wall Mmsg/s", "model speedup"},
		Clocks: []Clock{Label, Modeled, Modeled, Host, Host, Modeled},
	}
	gups, err := harness.LookupApp("gups")
	if err != nil {
		panic(err)
	}
	run := func(label string, shards int, scale float64, base float64) float64 {
		sys := core.New(core.Config{Nodes: 4, ResolverShards: shards})
		start := time.Now()
		res := gups.Run(sys, rt.Whole(), harness.Params{Scale: scale})
		wallNs := float64(time.Since(start).Nanoseconds())
		st := sys.Stats()
		sys.Close()
		msgs := float64(resolvedMsgs(st))
		sp := ""
		if base > 0 {
			sp = F(base / res.Ns)
		}
		t.AddRow(label,
			F(res.Ns/1e6),
			F(msgs/res.Ns*1e3), // msgs/ns -> Mmsg/s
			F(wallNs/1e6),
			F(msgs/wallNs*1e3),
			sp)
		return res.Ns
	}
	base := 0.0
	for _, s := range shardCounts {
		ns := run("shards="+strconv.Itoa(s), s, scale, base)
		if s == 1 {
			base = ns
		}
	}
	satBase := run("10x shards=1", 1, scale*10, 0)
	widest := shardCounts[len(shardCounts)-1]
	run("10x shards="+strconv.Itoa(widest), widest, scale*10, satBase)
	t.Note("1 shard = the paper's serial network thread (bit-identical); NetBound is the busiest bank when sharded")
	t.Note("model Mmsg/s counts resolver-applied messages (bypassed node-local messages included) over virtual time")
	return t
}

// resolvedMsgs is the receive side's applied message count: resolver
// banks plus the node-local bypass.
func resolvedMsgs(st rt.Stats) int64 {
	return st.Resolver.Msgs + st.Resolver.BypassMsgs
}
