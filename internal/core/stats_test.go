package core

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"gravel/internal/obs"
	"gravel/internal/pgas"
	"gravel/internal/rt"
	"gravel/internal/timemodel"
)

// incWorkload runs a few supersteps of scattered increments so every
// counter the stats snapshot reports (queue ops, drains, wire traffic)
// moves through multiple step boundaries.
func incWorkload(t *testing.T, sys rt.System, steps int) *pgas.Array {
	t.Helper()
	nodes := sys.Nodes()
	arr := sys.Space().Alloc(1 << 12)
	grid := fullGrid(nodes, 256)
	for s := 0; s < steps; s++ {
		sys.Step("inc", grid, 0, func(c rt.Ctx) {
			g := c.Group()
			idx := make([]uint64, g.Size)
			one := make([]uint64, g.Size)
			g.Vector(func(l int) {
				idx[l] = uint64((g.GlobalID(l)*2654435761 + s) % (1 << 12))
				one[l] = 1
			})
			c.Inc(arr, idx, one, nil)
		})
	}
	return arr
}

// TestStatsStepDeltasSumToCumulative pins the Stats contract that the
// per-step delta records add up to the cumulative section totals: both
// are drawn from the nodes' ledgers, the steps as the change between
// phase boundaries, so any drift means a count was kept elsewhere.
func TestStatsStepDeltasSumToCumulative(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(map[int]string{1: "shards=1", 4: "shards=4"}[shards], func(t *testing.T) {
			testStatsStepDeltas(t, shards)
		})
	}
}

func testStatsStepDeltas(t *testing.T, shards int) {
	cl := New(Config{Nodes: 4, ResolverShards: shards})
	defer cl.Close()
	incWorkload(t, cl, 3)

	st := cl.Stats()
	if st.Version != rt.StatsVersion {
		t.Fatalf("Stats.Version = %d, want %d", st.Version, rt.StatsVersion)
	}
	if len(st.Steps) != 3 {
		t.Fatalf("got %d step records, want 3", len(st.Steps))
	}
	var sum rt.StepStats
	for i, sp := range st.Steps {
		if sp.Index != i {
			t.Errorf("step %d has Index %d", i, sp.Index)
		}
		sum.VirtualNs += sp.VirtualNs
		sum.LocalOps += sp.LocalOps
		sum.RemoteOps += sp.RemoteOps
		sum.SlotsDrained += sp.SlotsDrained
		sum.MsgsDrained += sp.MsgsDrained
		sum.WirePackets += sp.WirePackets
		sum.WireBytes += sp.WireBytes
		sum.SelfPackets += sp.SelfPackets
		sum.AggBusyNs += sp.AggBusyNs
		sum.AggIdleNs += sp.AggIdleNs
		sum.ResolvedPackets += sp.ResolvedPackets
		sum.ResolvedMsgs += sp.ResolvedMsgs
		sum.ResolvedAMs += sp.ResolvedAMs
		sum.BypassPackets += sp.BypassPackets
		sum.BypassMsgs += sp.BypassMsgs
	}
	if sum.LocalOps != st.Queue.LocalOps || sum.RemoteOps != st.Queue.RemoteOps {
		t.Errorf("op deltas sum to (%d,%d), cumulative (%d,%d)",
			sum.LocalOps, sum.RemoteOps, st.Queue.LocalOps, st.Queue.RemoteOps)
	}
	if sum.SlotsDrained != st.Queue.SlotsDrained || sum.MsgsDrained != st.Queue.MsgsDrained {
		t.Errorf("drain deltas sum to (%d,%d), cumulative (%d,%d)",
			sum.SlotsDrained, sum.MsgsDrained, st.Queue.SlotsDrained, st.Queue.MsgsDrained)
	}
	if sum.WirePackets != st.Transport.WirePackets || sum.WireBytes != st.Transport.WireBytes {
		t.Errorf("wire deltas sum to (%d,%d), cumulative (%d,%d)",
			sum.WirePackets, sum.WireBytes, st.Transport.WirePackets, st.Transport.WireBytes)
	}
	if sum.SelfPackets != st.Transport.SelfPackets {
		t.Errorf("self-packet deltas sum to %d, cumulative %d", sum.SelfPackets, st.Transport.SelfPackets)
	}
	if sum.AggBusyNs != st.Agg.BusyNs || sum.AggIdleNs != st.Agg.IdleNs {
		t.Errorf("agg deltas sum to (%g,%g), cumulative (%g,%g)",
			sum.AggBusyNs, sum.AggIdleNs, st.Agg.BusyNs, st.Agg.IdleNs)
	}
	// Idle is what is left of the aggregator cores' phase time: busy and
	// idle together are nodes x the run's virtual time (to the clock's
	// 1/16 ns tick per node and step), which is also what BusyFrac
	// divides by.
	if cores := st.VirtualNs * 4; math.Abs(st.Agg.BusyNs+st.Agg.IdleNs-cores) > 1 {
		t.Errorf("agg busy %g + idle %g = %g, want the cores' phase time %g",
			st.Agg.BusyNs, st.Agg.IdleNs, st.Agg.BusyNs+st.Agg.IdleNs, cores)
	}
	if sum.ResolvedPackets != st.Resolver.Packets || sum.ResolvedMsgs != st.Resolver.Msgs ||
		sum.ResolvedAMs != st.Resolver.AMs {
		t.Errorf("resolver deltas sum to (%d,%d,%d), cumulative (%d,%d,%d)",
			sum.ResolvedPackets, sum.ResolvedMsgs, sum.ResolvedAMs,
			st.Resolver.Packets, st.Resolver.Msgs, st.Resolver.AMs)
	}
	if sum.BypassPackets != st.Resolver.BypassPackets || sum.BypassMsgs != st.Resolver.BypassMsgs {
		t.Errorf("bypass deltas sum to (%d,%d), cumulative (%d,%d)",
			sum.BypassPackets, sum.BypassMsgs, st.Resolver.BypassPackets, st.Resolver.BypassMsgs)
	}
	if st.Resolver.Shards != shards {
		t.Errorf("Stats.Resolver.Shards = %d, want %d", st.Resolver.Shards, shards)
	}
	if sum.VirtualNs != st.VirtualNs {
		t.Errorf("virtual-time deltas sum to %g, cumulative %g", sum.VirtualNs, st.VirtualNs)
	}
	if st.Queue.RemoteOps == 0 || st.Transport.WirePackets == 0 {
		t.Errorf("workload produced no traffic (remote=%d packets=%d); test is vacuous",
			st.Queue.RemoteOps, st.Transport.WirePackets)
	}
}

// TestStepLedgerBounded: past its window the step ledger keeps the last
// stepWindow records in a ring that never grows past the window, folds
// the steps it evicts into Earlier so every cumulative total still adds
// up, and keeps one per-name row that counts every step.
func TestStepLedgerBounded(t *testing.T) {
	const steps, earlier = 3*stepWindow + 7, 2*stepWindow + 7
	cl := New(Config{Nodes: 2})
	defer cl.Close()
	_, step := fineStep(cl)
	for s := 0; s < steps; s++ {
		step()
	}
	st := cl.Stats()
	if len(st.Steps) != stepWindow || st.Steps[0].Index != earlier || st.Earlier.Index != earlier {
		t.Fatalf("%d step records from step %d, %d folded into Earlier; want %d from step %d, %d folded",
			len(st.Steps), st.Steps[0].Index, st.Earlier.Index, stepWindow, earlier, earlier)
	}
	for i, sp := range st.Steps {
		if sp.Index != earlier+i {
			t.Fatalf("Steps[%d] is step %d, want %d", i, sp.Index, earlier+i)
		}
	}
	if c := cap(cl.steps); c != stepWindow {
		t.Errorf("the ring's capacity is %d, want %d", c, stepWindow)
	}

	// Earlier starts the sum, Index included; every int64 and float64
	// field of the steps adds in, the way TestStatsConservation sums.
	sum := st.Earlier
	acc := reflect.ValueOf(&sum).Elem()
	for _, sp := range st.Steps {
		v := reflect.ValueOf(sp)
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
	want := rt.StepStats{
		Index:     earlier,
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
	if sum != want {
		t.Errorf("Earlier and the steps sum to\n%+v\ncumulative\n%+v", sum, want)
	}
	if want.RemoteOps == 0 || want.WirePackets == 0 || st.Earlier.RemoteOps == 0 {
		t.Errorf("the steps left a count unmoved (test is vacuous): %+v", want)
	}
	// fineStep moves no signal, wait or AM, so fold is also checked on
	// its own: a step with every count 1 folds into an empty sum as
	// itself, counted once.
	var ones, folded rt.StepStats
	for v, i := reflect.ValueOf(&ones).Elem(), 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Int64:
			f.SetInt(1)
		case reflect.Float64:
			f.SetFloat(1)
		}
	}
	fold(&folded, &ones)
	if ones.Index = 1; folded != ones {
		t.Errorf("fold of a step of ones gave %+v", folded)
	}

	if len(st.Phases) != 1 {
		t.Fatalf("per-name rows %+v, want one", st.Phases)
	}
	if p := st.Phases[0]; p.Name != "fine" || p.Steps != steps || p.VirtualNs != cl.VirtualTimeNs() || p.MaxNs <= 0 {
		t.Errorf("per-name row %+v, want %d steps summing to %g ns", p, steps, cl.VirtualTimeNs())
	}
}

// TestStepNumbersPastWindow: the step-begin event and the
// gravel_steps_total counter number steps over the run, not within the
// step ledger's window.
func TestStepNumbersPastWindow(t *testing.T) {
	const before = stepWindow + 5
	cl := New(Config{Nodes: 2})
	defer cl.Close()
	_, step := fineStep(cl)
	for s := 0; s < before; s++ {
		step()
	}
	rec := obs.Start(obs.Options{RingCap: 1024})
	defer obs.Stop()
	step()
	obs.Stop()
	var begins []int64
	for _, ev := range rec.Events() {
		if ev.Kind == obs.KStepBegin {
			begins = append(begins, ev.A)
		}
	}
	if len(begins) != 1 || begins[0] != before {
		t.Errorf("step-begin events numbered %v, want [%d]", begins, before)
	}

	st := cl.Stats()
	srv, err := obs.NewServer("127.0.0.1:0", nil, func() *rt.Stats { return &st })
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if want := fmt.Sprintf("\ngravel_steps_total %d\n", before+1); !strings.Contains(string(body), want) {
		t.Errorf("/metrics lacks %q", strings.TrimSpace(want))
	}
}

// TestAggBusyFracCapacityWeighted: each node's one aggregator core is
// the capacity BusyFrac divides by, so it is busy time over virtual
// time x nodes, and busy and idle time split that capacity.
func TestAggBusyFracCapacityWeighted(t *testing.T) {
	cl := New(Config{Nodes: 2, Params: timemodel.Default()})
	defer cl.Close()

	// Deterministic clock state: 1e6 ns of aggregator busy time on each
	// node and nothing else, so the phase composes to 1e6+barrier ns and
	// each node's aggregator core is busy for all but the barrier.
	const busy = 1e6
	for _, n := range cl.nodes {
		n.Clocks.AddAgg(busy)
	}
	cl.EndPhaseOverlapped("synthetic")

	st := cl.Stats()
	if st.Agg.BusyNs != 2*busy {
		t.Fatalf("Stats.Agg.BusyNs = %v, want %v", st.Agg.BusyNs, 2*busy)
	}
	want := st.Agg.BusyNs / (st.VirtualNs * 2)
	if st.Agg.BusyFrac != want {
		t.Errorf("BusyFrac = %v, want busy/(virtual*nodes) = %v", st.Agg.BusyFrac, want)
	}
	// Busy and idle time split the cores' capacity, so their ratio is
	// the busy fraction.
	if split := st.Agg.BusyNs / (st.Agg.BusyNs + st.Agg.IdleNs); math.Abs(st.Agg.BusyFrac-split) > 1e-6 {
		t.Errorf("BusyFrac %v, but busy/(busy+idle) = %v: capacity weighting lost", st.Agg.BusyFrac, split)
	}
}

// TestTraceReplay is the enabled-path flight recorder test: run a real
// workload with the recorder installed, serialize the trace to JSONL,
// and replay it through the validator — which enforces the schema
// (version, known kinds, node range) and monotonic timestamps — then
// check the kinds a superstep must produce are all present.
func TestTraceReplay(t *testing.T) {
	rec := obs.Start(obs.Options{})
	defer obs.Stop()

	cl := New(Config{Nodes: 4})
	incWorkload(t, cl, 2)
	cl.Close()
	obs.Stop()

	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	events, err := obs.ValidateJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("trace failed validation: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("trace is empty")
	}
	seen := map[obs.Kind]int{}
	for _, ev := range events {
		seen[ev.Kind]++
	}
	for _, want := range []obs.Kind{obs.KStepBegin, obs.KStepEnd, obs.KSlotReserve, obs.KSend} {
		if seen[want] == 0 {
			t.Errorf("trace has no %q events (kinds seen: %v)", want, seen)
		}
	}
	if seen[obs.KStepBegin] != 2 || seen[obs.KStepEnd] != 2 {
		t.Errorf("step span events: %d begin / %d end, want 2 / 2",
			seen[obs.KStepBegin], seen[obs.KStepEnd])
	}
	// Flushes happen (full or timeout) whenever messages were staged.
	if seen[obs.KAggFlushFull]+seen[obs.KAggFlushTimeout] == 0 {
		t.Error("trace has no aggregator flush events")
	}
}
