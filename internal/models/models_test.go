package models_test

import (
	"fmt"
	"reflect"
	"testing"

	"gravel/internal/apps/gups"
	"gravel/internal/core"
	"gravel/internal/graph"
	"gravel/internal/models"
	"gravel/internal/obs"
	"gravel/internal/rt"
)

// allSystems includes the six Figure 15 systems plus the Figure 13
// CPU-only baseline.
func allSystems() []string {
	return append(models.Names(), "cpu-only")
}

// TestModelOrderingGUPS sanity-checks the Figure 15 shape on GUPS at
// 4 nodes: gravel beats msg-per-lane by a wide margin, and coalesced+agg
// lands close to gravel.
func TestModelOrderingGUPS(t *testing.T) {
	const nodes = 4
	cfg := gups.Config{TableSize: 1 << 14, UpdatesPerNode: 1 << 14, Seed: 5}
	ns := map[string]float64{}
	for _, name := range allSystems() {
		sys := models.New(name, nodes, nil)
		res := gups.Run(sys, cfg)
		sys.Close()
		ns[name] = res.Ns
	}
	if ns["msg-per-lane"] < 4*ns["gravel"] {
		t.Errorf("msg-per-lane (%.0f) should be far slower than gravel (%.0f)", ns["msg-per-lane"], ns["gravel"])
	}
	if ns["coprocessor"] < ns["gravel"] {
		t.Errorf("coprocessor (%.0f) should be slower than gravel (%.0f)", ns["coprocessor"], ns["gravel"])
	}
}

// TestSystemsReportStats ensures every model fills in Stats.
func TestSystemsReportStats(t *testing.T) {
	for _, name := range allSystems() {
		sys := models.New(name, 2, nil)
		res := gups.Run(sys, gups.Config{TableSize: 1 << 10, UpdatesPerNode: 1 << 10, Seed: 1})
		q := sys.Stats().Queue
		if q.LocalOps+q.RemoteOps != res.Updates {
			t.Errorf("%s: ops=%d, want %d", name, q.LocalOps+q.RemoteOps, res.Updates)
		}
		st := sys.Stats().Transport
		if st.WirePackets == 0 && name != "cpu-only" {
			t.Errorf("%s: no wire packets recorded", name)
		}
		if sys.Name() != name && !(name == "cpu-only" && sys.Name() == "cpu-only") {
			t.Errorf("Name() = %q, want %q", sys.Name(), name)
		}
		var _ rt.System = sys
		sys.Close()
	}
}

// ledgerMix runs steps supersteps of a kernel that moves every count a
// node's ledger keeps: local and remote Inc, Put and AM, an AM
// handler's host-side reply, and on each node's first work-group a
// signalled put to the next node and a wait for the one from the node
// before.
func ledgerMix(sys rt.System, steps int) {
	const perNode = 2*256 + 100
	nodes := sys.Nodes()
	acc := sys.Space().Alloc(1 << 10)
	cells := sys.Space().Alloc(nodes * perNode) // one private cell per work-item
	data := sys.Space().SymAlloc(1)
	sig := sys.Space().SymAlloc(1)
	reply := sys.RegisterAM(func(int, uint64, uint64) {})
	ask := sys.RegisterAM(func(node int, from, _ uint64) { sys.HostAM(node, reply, int(from), 0, 0) })
	grid := make([]int, nodes)
	for i := range grid {
		grid[i] = perNode
	}
	for s := 0; s < steps; s++ {
		sys.Step("mix", grid, 0, func(c rt.Ctx) {
			g := c.Group()
			me := c.Node()
			idx, cell, val := make([]uint64, g.Size), make([]uint64, g.Size), make([]uint64, g.Size)
			from, dst := make([]uint64, g.Size), make([]int, g.Size)
			g.Vector(func(l int) {
				x := graph.Hash64(uint64(s)<<48 ^ uint64(me)<<32 ^ uint64(g.GlobalID(l)))
				idx[l], val[l], from[l], dst[l] = x%uint64(acc.Len()), 1, uint64(me), int(x>>32)%nodes
				cell[l] = uint64(me*perNode+g.GlobalID(l)) * 7 % uint64(nodes*perNode)
			})
			c.Inc(acc, idx, val, nil)
			c.Put(cells, cell, val, nil)
			c.AM(ask, dst, from, val, nil)
			if g.ID != 0 {
				return
			}
			one := make([]bool, g.Size)
			one[0] = true
			next := (me + 1) % nodes
			c.PutSignal(data, []uint64{data.SymIndex(next, 0)}, val, sig, []uint64{sig.SymIndex(next, 0)}, one)
			c.WaitUntil(sig, []uint64{sig.SymIndex(me, 0)}, []uint64{uint64(s + 1)}, one)
		})
	}
}

// TestStatsConservation: every model, at one and four resolver shards,
// over the channel fabric and the framed loopback, reports counts that
// add up — the per-step records to the cumulative totals, field by
// field; the per-destination wire split to the wire totals; the
// per-bank and bypass messages to what the nodes' ledgers applied; the
// flush counts to the flight recorder's flush events; and, on every row
// whose packets all leave through the node's aggregator, the flushes to
// the packets.
func TestStatsConservation(t *testing.T) {
	const nodes = 4
	viaAgg := map[string]bool{"gravel": true, "msg-per-lane": true, "cpu-only": true, "gravel-archive": true, "coalesced+agg": true}
	for _, m := range models.Table {
		for _, shards := range []int{1, 4} {
			for _, fab := range []string{"chan", "loopback"} {
				t.Run(fmt.Sprintf("%s/shards=%d/%s", m.Name, shards, fab), func(t *testing.T) {
					// Only the per-kind counts are read, and they stay exact
					// across ring wraps: small rings keep memory flat even
					// where the race detector drops pooled rings.
					rec := obs.Start(obs.Options{RingCap: 64})
					defer obs.Stop()
					sys, err := m.New(core.Config{Nodes: nodes, ResolverShards: shards, Transport: fab})
					if err != nil {
						t.Fatal(err)
					}
					ledgerMix(sys, 3)
					st := sys.Stats()
					var netMsgs int64
					for i := 0; i < nodes; i++ {
						netMsgs += sys.(interface{ Node(int) *core.Node }).Node(i).Clocks.Snapshot().NetMsgs
					}
					sys.Close()

					want := rt.StepStats{
						VirtualNs: st.VirtualNs,
						LocalOps:  st.Queue.LocalOps, RemoteOps: st.Queue.RemoteOps,
						SlotsDrained: st.Queue.SlotsDrained, MsgsDrained: st.Queue.MsgsDrained,
						WirePackets: st.Transport.WirePackets, WireBytes: st.Transport.WireBytes,
						SelfPackets: st.Transport.SelfPackets,
						AggBusyNs:   st.Agg.BusyNs, AggIdleNs: st.Agg.IdleNs,
						ResolvedPackets: st.Resolver.Packets, ResolvedMsgs: st.Resolver.Msgs, ResolvedAMs: st.Resolver.AMs,
						BypassPackets: st.Resolver.BypassPackets, BypassMsgs: st.Resolver.BypassMsgs,
						Signals: st.PGAS.Signals, Waits: st.PGAS.Waits,
					}
					var sum rt.StepStats
					acc := reflect.ValueOf(&sum).Elem()
					for _, step := range st.Steps {
						v := reflect.ValueOf(step)
						for i := 0; i < v.NumField(); i++ {
							switch f := acc.Field(i); f.Kind() {
							case reflect.Int64:
								f.SetInt(f.Int() + v.Field(i).Int())
							case reflect.Float64:
								f.SetFloat(f.Float() + v.Field(i).Float())
							}
						}
					}
					sum.WallNs = 0 // a clock reading, not a count
					if len(st.Steps) != 3 || sum != want {
						t.Errorf("%d step records summing to\n%+v\ncumulative\n%+v", len(st.Steps), sum, want)
					}
					if want.RemoteOps == 0 || want.Signals == 0 || want.Waits == 0 || want.ResolvedAMs == 0 {
						t.Errorf("the mix left a count unmoved: %+v", want)
					}

					var dest rt.DestCount
					for _, d := range st.Transport.PerDest {
						dest.Packets += d.Packets
						dest.Bytes += d.Bytes
					}
					if dest.Packets != want.WirePackets || dest.Bytes != want.WireBytes {
						t.Errorf("PerDest sums to %d packets, %d bytes; wire totals %d, %d", dest.Packets, dest.Bytes, want.WirePackets, want.WireBytes)
					}

					var bank rt.BankCount
					for _, b := range st.Resolver.PerBank {
						bank.Packets += b.Packets
						bank.Msgs += b.Msgs
						bank.AMs += b.AMs
					}
					if bank != (rt.BankCount{Packets: want.ResolvedPackets, Msgs: want.ResolvedMsgs, AMs: want.ResolvedAMs}) ||
						bank.Msgs+want.BypassMsgs != netMsgs {
						t.Errorf("PerBank sums to %+v (+%d bypassed); resolver totals %d/%d/%d, ledgers applied %d messages",
							bank, want.BypassMsgs, want.ResolvedPackets, want.ResolvedMsgs, want.ResolvedAMs, netMsgs)
					}

					if full, timeout := rec.Count(obs.KAggFlushFull), rec.Count(obs.KAggFlushTimeout); full != st.Agg.FlushesFull || timeout != st.Agg.FlushesTimeout {
						t.Errorf("flushes counted %d full, %d timeout; recorder saw %d, %d", st.Agg.FlushesFull, st.Agg.FlushesTimeout, full, timeout)
					}
					// Where every packet leaves through the node's aggregator,
					// each is one flush.
					if viaAgg[m.Name] && st.Agg.FlushesFull+st.Agg.FlushesTimeout != want.WirePackets+want.SelfPackets {
						t.Errorf("%d full + %d timeout flushes for %d wire + %d self packets",
							st.Agg.FlushesFull, st.Agg.FlushesTimeout, want.WirePackets, want.SelfPackets)
					}
				})
			}
		}
	}
}

// TestEveryModelStepHasPrologue: whichever path a model launches
// through, each of its steps measures wall time and pairs one
// step-begin with its step-end in the flight recorder.
func TestEveryModelStepHasPrologue(t *testing.T) {
	cfg := gups.Config{TableSize: 1 << 10, UpdatesPerNode: 1 << 10, Seed: 1, Steps: 3}
	for _, m := range models.Table {
		rec := obs.Start(obs.Options{})
		sys := models.New(m.Name, 2, nil)
		gups.Run(sys, cfg)
		steps := sys.Stats().Steps
		sys.Close()
		obs.Stop()
		if len(steps) != cfg.Steps {
			t.Errorf("%s: %d steps recorded, want %d", m.Name, len(steps), cfg.Steps)
		}
		for _, s := range steps {
			if s.WallNs <= 0 {
				t.Errorf("%s: step %d (%s) has WallNs %d", m.Name, s.Index, s.Name, s.WallNs)
			}
		}
		begins, ends := rec.Count(obs.KStepBegin), rec.Count(obs.KStepEnd)
		if begins != ends || ends != int64(len(steps)) {
			t.Errorf("%s: %d step-begin and %d step-end events for %d steps", m.Name, begins, ends, len(steps))
		}
	}
}
