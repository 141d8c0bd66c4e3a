package main

import (
	"fmt"
	"math"

	"gravel/internal/obs"
)

// The traced run. Per-layer numbers come from four sources: the
// microbenchmarks (layers.go), the staged pipeline (staged.go), reps of
// the workload with the benchmark's span recorder alternately off and
// on, and the workload's own counters read from Stats at the end.

// trace is the -tracefile document.
type trace struct {
	Header header `json:"header"`
	Spans  []span `json:"spans"`
}

func runTraced(run []*spec, h header, tracefile string) ([]result, error) {
	seed, seconds := h.Seed, float64(h.Seconds)
	pairs := min(max(int(seconds)/2, 2), 5)
	rec := newRecorder()

	shared, err := measureLayers(seed)
	if err != nil {
		return nil, err
	}
	staged, err := stagedPipeline(rec, seed, stagedPasses)
	if err != nil {
		return nil, err
	}
	for _, hop := range hops {
		shared = append(shared, single(hop.metric, "ns", "host", staged[hop.span], stagedPasses))
	}
	shared = append(shared, single("path.serial_ns_per_msg", "ns", "host", staged["serial"], stagedPasses))

	// gups-bulk with the program's own flight recorder off and on: the
	// recorder's cost, and the wall ns/msg path.overlap is held against.
	bulk, err := build(&specs[0], seed)
	if err != nil {
		return nil, err
	}
	var off, on, events []float64
	for i := 0; i < pairs; i++ {
		var r, t repResult
		var o *obs.Recorder
		for k := 0; k < 2; k++ {
			if k == i%2 { // alternate which side runs first, so drift cancels
				r = bulk.rep(nil, i)
			} else {
				o = obs.Start(obs.Options{})
				t = bulk.rep(nil, i)
				obs.Stop()
			}
		}
		if !r.ok || !t.ok {
			bulk.close()
			return nil, fmt.Errorf("gups-bulk rep for the obs on/off comparison: %s", bulk.failure)
		}
		n := int64(0)
		for _, c := range o.Counts() {
			n += c
		}
		off, on = append(off, wallNsPerMsg(r)), append(on, wallNsPerMsg(t))
		events = append(events, float64(n)/float64(t.msgs)*1e3)
	}
	bulk.close()
	shared = append(shared,
		single("obs.enabled_overhead_frac", "ratio", "host", median(on)/median(off)-1, pairs),
		single("obs.events_per_kmsg", "count", "count", median(events), pairs),
		single("path.overlap", "ratio", "host", staged["serial"]/median(off), pairs))

	var out []result
	for _, sp := range run {
		res, err := traceWorkload(sp, seed, pairs, rec)
		if err != nil {
			return nil, err
		}
		res.Metrics = append(res.Metrics, shared...)
		out = append(out, res)
	}
	if tracefile != "" {
		err = writeJSON(tracefile, trace{Header: h, Spans: rec.spans})
	}
	return out, err
}

// traceWorkload runs one workload's reps with the span recorder
// alternately off and on and derives its per-layer metrics.
func traceWorkload(sp *spec, seed uint64, pairs int, rec *recorder) (result, error) {
	in, err := build(sp, seed)
	if err != nil {
		return result{}, err
	}
	defer in.close()
	plain, traced := &repSet{in: in}, &repSet{in: in}
	var plainSteps []float64
	for i := 0; i < pairs && in.failure == ""; i++ {
		for k := 0; k < 2; k++ {
			if k == i%2 { // alternate which side runs first, so drift cancels
				in.stepNs = in.stepNs[:0]
				plain.add(in.rep(nil, i))
				plainSteps = append(plainSteps, in.stepNs...)
			} else {
				rec.on = true
				traced.add(in.rep(rec, i))
				rec.on = false
			}
		}
	}
	// One more rep under the program's flight recorder, only to count
	// transport retransmit events (no exported counter carries them).
	o := obs.Start(obs.Options{})
	extra := &repSet{in: in}
	if in.failure == "" {
		extra.add(in.rep(nil, pairs))
	}
	obs.Stop()

	res := result{
		Workload:  sp.name,
		Attempted: plain.attempted + traced.attempted + extra.attempted,
		Failed:    plain.failed + traced.failed + extra.failed,
		Failure:   in.failure,
	}
	if res.Failed > 0 || len(plain.reps) == 0 {
		return res, nil
	}

	// Counters, summed over the instance's systems.
	var full, timeout, wirePkts, wireBytes, reconnects, slots, applied, bypassed int64
	var busy float64
	var banks []int64
	for _, sys := range in.sys {
		st := sys.Stats()
		full += st.Agg.FlushesFull
		timeout += st.Agg.FlushesTimeout
		busy += st.Agg.BusyFrac // each TCP process weighs its one hosted node against the whole cluster's capacity
		wirePkts += st.Transport.WirePackets
		wireBytes += st.Transport.WireBytes
		reconnects += st.Transport.Reconnects
		slots += st.Queue.SlotsDrained
		applied += st.Resolver.Msgs + st.Resolver.BypassMsgs
		bypassed += st.Resolver.BypassMsgs
		if banks == nil {
			banks = make([]int64, len(st.Resolver.PerBank))
		}
		for b, c := range st.Resolver.PerBank {
			banks[b] += c.Msgs
		}
	}
	var bankMax, bankSum int64
	for _, m := range banks {
		bankMax = max(bankMax, m)
		bankSum += m
	}
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	first := plain.reps[0]
	msgs := float64(first.msgs) // the same every rep: the oracle checks it
	model := plain.column(func(r repResult) float64 { return r.modelNs / msgs })
	modelNs, dev := median(model), 0.0
	for _, v := range model {
		dev = max(dev, math.Abs(v/modelNs-1))
	}
	wall := median(plain.column(wallNsPerMsg))
	n := len(plain.reps)
	count := func(name string, v float64) metric { return single(name, "count", "count", v, n) }
	modeled := func(name string, v float64) metric { return single(name, "ns", "modeled", v, n) }
	res.Metrics = []metric{
		count("queue.slots_per_kmsg", ratio(slots, applied)*1e3),
		single("agg.flush_full_frac", "ratio", "count", ratio(full, full+timeout), n),
		single("agg.avg_pkt_bytes", "B", "count", ratio(wireBytes, wirePkts), n),
		single("agg.busy_frac", "ratio", "modeled", busy, n),
		count("transport.retransmits", float64(o.Count(obs.KRetransmit))),
		count("transport.reconnects", float64(reconnects)),
		single("core.step_p99_us", "us", "host", percentile(plainSteps, 99)/1e3, len(plainSteps)),
		single("core.bank_imbalance", "ratio", "count", ratio(bankMax*int64(len(banks)), bankSum), n),
		single("core.bypass_msg_frac", "ratio", "count", ratio(bypassed, applied), n),
		modeled("timemodel.gpu_ns_per_msg", first.clk.GPU/msgs),
		modeled("timemodel.agg_ns_per_msg", first.clk.Agg/msgs),
		modeled("timemodel.net_ns_per_msg", first.clk.Net/msgs),
		modeled("timemodel.wire_ns_per_msg", first.clk.WireSend/msgs),
		modeled("timemodel.model_ns_per_msg", modelNs),
		single("timemodel.model_rep_spread", "ratio", "modeled", dev, n),
		single("path.clock_ratio", "ratio", "host", wall/modelNs, n),
		single("bench.trace_overhead_frac", "ratio", "host", median(traced.column(wallNsPerMsg))/wall-1, n),
	}
	return res, nil
}
