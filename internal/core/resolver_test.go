package core

import (
	"testing"

	"gravel/internal/rt"
)

// runSharded runs a seeded scattered-increment workload on a fresh
// cluster and returns an order-sensitive checksum of the whole array,
// the stats snapshot, and the cluster-wide CountNetMsgs total. The
// workload mixes node-local and remote traffic, so it exercises the
// resolver banks and the node-local bypass together.
func runSharded(t *testing.T, nodes, group, shards int, seed uint64) (check uint64, st rt.Stats, netMsgs int64) {
	t.Helper()
	cl := New(Config{Nodes: nodes, GroupSize: group, ResolverShards: shards})
	defer cl.Close()
	const size = 1 << 12
	arr := cl.Space().Alloc(size)
	grid := fullGrid(nodes, 256)
	for s := 0; s < 3; s++ {
		cl.Step("inc", grid, 0, func(c rt.Ctx) {
			g := c.Group()
			idx := make([]uint64, g.Size)
			val := make([]uint64, g.Size)
			node := uint64(c.Node())
			g.Vector(func(l int) {
				idx[l] = (seed + node<<9 + uint64(g.GlobalID(l))*2654435761 + uint64(s)*97) % size
				val[l] = uint64(g.GlobalID(l))%7 + 1
			})
			c.Inc(arr, idx, val, nil)
		})
	}
	for i := uint64(0); i < size; i++ {
		check = check*31 + arr.Load(i)
	}
	st = cl.Stats()
	for _, n := range cl.nodes {
		netMsgs += n.Clocks.Snapshot().NetMsgs
	}
	return check, st, netMsgs
}

// TestShardedResolutionMatchesSerial: sharding the receive side must be
// invisible to application results and to the resolved-message
// accounting — only wall time (and the banked clock split) may change.
func TestShardedResolutionMatchesSerial(t *testing.T) {
	for _, group := range []int{0, 3} {
		ref, refSt, refNet := runSharded(t, 6, group, 1, 42)
		refApplied := refSt.Resolver.Msgs + refSt.Resolver.BypassMsgs
		if refApplied == 0 {
			t.Fatalf("group=%d: workload resolved no messages; test is vacuous", group)
		}
		if refNet != refApplied {
			t.Fatalf("group=%d shards=1: CountNetMsgs %d != resolver-applied %d", group, refNet, refApplied)
		}
		for _, shards := range []int{2, 4} {
			got, st, netMsgs := runSharded(t, 6, group, shards, 42)
			if got != ref {
				t.Errorf("group=%d shards=%d: checksum %d, serial %d", group, shards, got, ref)
			}
			applied := st.Resolver.Msgs + st.Resolver.BypassMsgs
			if applied != refApplied {
				t.Errorf("group=%d shards=%d: resolved %d msgs, serial resolved %d", group, shards, applied, refApplied)
			}
			// Every applied message is counted exactly once, relays at
			// their final destination only.
			if netMsgs != applied {
				t.Errorf("group=%d shards=%d: CountNetMsgs %d != resolver-applied %d", group, shards, netMsgs, applied)
			}
		}
	}
}

// TestRoutedReaggregationSharded is the hierarchical (§10) property
// test: routed packets relay through gateways, and with resolver banks
// the gateway's re-aggregation must neither reorder same-word records
// nor double-count relayed messages. Several seeded workloads must be
// bit-identical between serial and 4-way sharded resolution.
func TestRoutedReaggregationSharded(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		ref, refSt, _ := runSharded(t, 6, 2, 1, seed)
		got, st, netMsgs := runSharded(t, 6, 2, 4, seed)
		if got != ref {
			t.Errorf("seed=%d: sharded checksum %d, serial %d", seed, got, ref)
		}
		refApplied := refSt.Resolver.Msgs + refSt.Resolver.BypassMsgs
		applied := st.Resolver.Msgs + st.Resolver.BypassMsgs
		if applied != refApplied {
			t.Errorf("seed=%d: sharded resolved %d msgs, serial %d (relay double-count?)", seed, applied, refApplied)
		}
		if netMsgs != applied {
			t.Errorf("seed=%d: CountNetMsgs %d != resolver-applied %d", seed, netMsgs, applied)
		}
	}
}

// TestResolverStatsPerBank: the per-bank breakdown must sum exactly to
// the cumulative resolver section, and sharded runs must actually
// spread work across banks.
func TestResolverStatsPerBank(t *testing.T) {
	_, st, _ := runSharded(t, 4, 0, 4, 7)
	if st.Resolver.Shards != 4 {
		t.Fatalf("Resolver.Shards = %d, want 4", st.Resolver.Shards)
	}
	if len(st.Resolver.PerBank) != 4 {
		t.Fatalf("len(PerBank) = %d, want 4", len(st.Resolver.PerBank))
	}
	var pkts, msgs, ams int64
	active := 0
	for _, b := range st.Resolver.PerBank {
		pkts += b.Packets
		msgs += b.Msgs
		ams += b.AMs
		if b.Msgs > 0 {
			active++
		}
	}
	if pkts != st.Resolver.Packets || msgs != st.Resolver.Msgs || ams != st.Resolver.AMs {
		t.Errorf("PerBank sums (%d,%d,%d) != cumulative (%d,%d,%d)",
			pkts, msgs, ams, st.Resolver.Packets, st.Resolver.Msgs, st.Resolver.AMs)
	}
	if active < 2 {
		t.Errorf("only %d of 4 banks resolved messages; demux not spreading", active)
	}
}

// TestSelfSendBypassAccounting pins the node-local fast path's exact
// bookkeeping: on a single node every packet is node-local, so the wire
// stays untouched, every self packet is resolved by the bypass (not a
// resolver inbox), every drained message is bypass-applied, and the
// fabric is quiet the moment Step returns.
func TestSelfSendBypassAccounting(t *testing.T) {
	for _, shards := range []int{1, 4} {
		cl := New(Config{Nodes: 1, ResolverShards: shards})
		arr := cl.Space().Alloc(256)
		cl.Step("inc", []int{1024}, 0, func(c rt.Ctx) {
			g := c.Group()
			idx := make([]uint64, g.Size)
			one := make([]uint64, g.Size)
			g.Vector(func(l int) {
				idx[l] = uint64(g.GlobalID(l) % 256)
				one[l] = 1
			})
			c.Inc(arr, idx, one, nil)
		})
		if !cl.fab.Quiet() {
			t.Fatalf("shards=%d: fabric not quiet after Step", shards)
		}
		if got := arr.Sum(); got != 1024 {
			t.Fatalf("shards=%d: sum = %d, want 1024", shards, got)
		}
		st := cl.Stats()
		var netMsgs int64
		for _, n := range cl.nodes {
			netMsgs += n.Clocks.Snapshot().NetMsgs
		}
		cl.Close()
		if st.Transport.WirePackets != 0 {
			t.Errorf("shards=%d: node-local run put %d packets on the wire", shards, st.Transport.WirePackets)
		}
		if st.Resolver.BypassPackets == 0 {
			t.Fatalf("shards=%d: no packets took the bypass", shards)
		}
		if st.Resolver.BypassPackets != st.Transport.SelfPackets {
			t.Errorf("shards=%d: bypass packets %d != self packets %d",
				shards, st.Resolver.BypassPackets, st.Transport.SelfPackets)
		}
		if st.Resolver.Packets != 0 {
			t.Errorf("shards=%d: %d packets reached resolver inboxes on a 1-node run", shards, st.Resolver.Packets)
		}
		if st.Resolver.BypassMsgs != st.Queue.MsgsDrained {
			t.Errorf("shards=%d: bypass msgs %d != drained msgs %d",
				shards, st.Resolver.BypassMsgs, st.Queue.MsgsDrained)
		}
		if netMsgs != st.Resolver.BypassMsgs {
			t.Errorf("shards=%d: CountNetMsgs %d != bypass msgs %d", shards, netMsgs, st.Resolver.BypassMsgs)
		}
	}
}

// TestHostAMCascadeSharded is TestHostAMCascade at four resolver banks:
// AM handlers execute on resolver goroutines and re-send via HostAM, so
// the cascade proves handler execution, AppendDirect staging, and
// quiescence all survive the fan-out.
func TestHostAMCascadeSharded(t *testing.T) {
	cl := New(Config{Nodes: 4, ResolverShards: 4})
	defer cl.Close()
	arr := cl.Space().Alloc(4)
	var hop uint8
	hop = cl.RegisterAM(func(node int, a, b uint64) {
		arr.Add(uint64(node), 1)
		if b > 0 {
			cl.HostAM(node, hop, (node+1)%4, a, b-1)
		}
	})
	cl.Step("cascade", []int{1, 0, 0, 0}, 0, func(c rt.Ctx) {
		g := c.Group()
		dest := []int{1}
		a := []uint64{0}
		b := []uint64{99}
		g.Vector(func(int) {})
		c.AM(hop, dest, a, b, nil)
	})
	if got := arr.Sum(); got != 100 {
		t.Fatalf("cascade hops = %d, want 100 (quiescence returned early?)", got)
	}
	st := cl.Stats()
	if st.Resolver.AMs == 0 {
		t.Fatal("no AMs resolved on resolver banks")
	}
}
