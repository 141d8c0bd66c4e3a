package main

import (
	"runtime"
	"time"
)

// metric is one reported number: a quantile over samples (usually the
// median over reps) with the samples' quartiles and count; clock says
// whether it was read off the host or is the time model's virtual time.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Clock  string  `json:"clock"` // "host", "modeled" or "count"
	Value  float64 `json:"value"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
	Better string  `json:"better"`          // "higher" or "lower"
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: tolerated worsening as a share of the old median
	// Samples are the per-rep values behind Value, in rep order.
	Samples []float64 `json:"samples,omitempty"`
}

// sampled reports the p-th percentile of per-rep samples (50 = the
// median) together with their quartiles.
func sampled(name, unit, clock string, xs []float64, p float64) metric {
	q1, q3 := quartiles(xs)
	return metric{Name: name, Unit: unit, Clock: clock, Value: percentile(xs, p), Q1: q1, Q3: q3, N: len(xs), Samples: xs}
}

func single(name, unit, clock string, v float64, n int) metric {
	return metric{Name: name, Unit: unit, Clock: clock, Value: v, Q1: v, Q3: v, N: n}
}

// minReps is the floor on timed reps per workload: below it the median
// over reps is not steady enough to gate on.
const minReps = 11

// setupRuns is how many times set-up is repeated to report its median.
const setupRuns = 5

// result is everything one workload's run produced.
type result struct {
	Workload  string   `json:"workload"`
	Attempted int      `json:"attempted"` // timed steps
	Failed    int      `json:"failed"`
	Failure   string   `json:"failure,omitempty"`
	Metrics   []metric `json:"metrics"`
}

// repSet accumulates timed reps of one instance. A rep fails — all its
// steps count as failed — if a Step unwound with a typed error or the
// oracle check (arrays and applied-message count) did not hold.
//
// A rep's modeled time is deliberately not part of that rule. The time
// model's charges are deterministic, but their sum depends on how
// messages fall into packets, and that depends on thread interleaving:
// each packet's charge is truncated to a 1/16 ns tick (deviations of
// ~1e-9 between reps at 2 resolver shards), and now and then Quiesce's
// timeout flush runs while the aggregator has claimed a slot it has not
// repacked yet, which splits one packet in two and adds one per-packet
// charge (~3e-5 of a gups-bulk rep, seen about once in 50 reps). The
// traced run reports the spread as timemodel.model_rep_spread.
type repSet struct {
	in        *instance
	reps      []repResult
	attempted int
	failed    int
}

func (rs *repSet) add(r repResult) {
	steps := rs.in.sp.sh.stepsPerRep
	rs.attempted += steps
	if !r.ok {
		rs.failed += steps
		return
	}
	rs.reps = append(rs.reps, r)
}

func (rs *repSet) column(f func(repResult) float64) []float64 {
	xs := make([]float64, len(rs.reps))
	for i, r := range rs.reps {
		xs[i] = f(r)
	}
	return xs
}

func wallNsPerMsg(r repResult) float64 { return float64(r.wallNs) / float64(r.msgs) }

// runUntraced measures the end-to-end metrics: per workload, set-up
// (repeated, median reported), then timed reps with the span recorder
// off and obs disabled. Reps are interleaved round-robin across the
// workloads, so a noisy period on a shared machine hits all of them. A
// workload is done after reps reps, or — when reps is 0 — once it has
// at least minReps reps and seconds of rep wall time.
func runUntraced(run []*spec, seed uint64, seconds float64, reps int) ([]result, error) {
	type job struct {
		rs     *repSet
		setups []float64
		heapMB float64
		wall   float64
		n      int
		done   bool
	}
	var jobs []*job
	defer func() {
		for _, j := range jobs {
			if j.rs.in != nil {
				j.rs.in.close()
			}
		}
	}()
	for _, sp := range run {
		j := &job{rs: &repSet{}}
		jobs = append(jobs, j)
		for i := 0; i < setupRuns; i++ {
			if j.rs.in != nil {
				j.rs.in.close()
			}
			t0 := time.Now()
			in, err := build(sp, seed)
			if err != nil {
				return nil, err
			}
			j.rs.in = in
			j.setups = append(j.setups, time.Since(t0).Seconds())
		}
	}
	for active := len(jobs); active > 0; {
		for _, j := range jobs {
			if j.done {
				continue
			}
			r := j.rs.in.rep(nil, j.n)
			j.rs.add(r)
			j.n++
			j.wall += float64(r.wallNs) / 1e9
			if j.n == minReps {
				j.heapMB = liveHeapMB()
			}
			if j.rs.in.failure != "" || (reps > 0 && j.n >= reps) || (reps <= 0 && j.n >= minReps && j.wall >= seconds) {
				j.done = true
				active--
			}
		}
	}
	var out []result
	for _, j := range jobs {
		out = append(out, j.rs.e2e(j.setups, j.heapMB))
	}
	return out, nil
}

// liveHeapMB is HeapInuse right after two forced collections (the
// second empties the sync.Pool victim caches the first one filled):
// what the process retains, without the garbage and pooled buffers a GC
// cycle happens to have left. It is read once per workload, after the
// same number of reps in every run, because the program keeps per-step
// history and so retains more the more steps it has run.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / (1 << 20)
}

// e2e turns the accumulated reps into the end-to-end metrics.
func (rs *repSet) e2e(setups []float64, heapMB float64) result {
	in := rs.in
	res := result{Workload: in.sp.name, Attempted: rs.attempted, Failed: rs.failed, Failure: in.failure}
	if len(rs.reps) == 0 {
		return res
	}
	res.Metrics = []metric{
		sampled("wall_mmsgs", "Mmsg/s", "host", rs.column(func(r repResult) float64 { return 1e3 / wallNsPerMsg(r) }), 100-fastQuartile),
		sampled("cpu_ns_per_msg", "ns", "host", rs.column(func(r repResult) float64 { return float64(r.cpuNs) / float64(r.msgs) }), fastQuartile),
		sampled("allocs_per_kmsg", "count", "count", rs.column(func(r repResult) float64 { return float64(r.mallocs) / float64(r.msgs) * 1e3 }), 50),
		sampled("step_p50_us", "us", "host", stepPercentiles(in.stepNs, in.sp.sh.stepsPerRep, 50), fastQuartile),
		sampled("step_p90_us", "us", "host", stepPercentiles(in.stepNs, in.sp.sh.stepsPerRep, 90), fastQuartile),
		single("heap_inuse_mb", "MB", "host", heapMB, 1),
		sampled("setup_s", "s", "host", setups, 50),
	}
	return res
}

// fastQuartile is the percentile of the per-rep samples the host-clock
// end-to-end timings report: the quartile on the fast side (25 for a
// time, 75 for a rate). Interference on a shared machine only ever
// slows a rep down, so when a burst of it covers part of a run the
// median moves with the burst while the fast quartile stays put; on a
// quiet machine the two are equally steady (ten-run spreads within a
// factor 1.2 of each other on all four workloads), and a real
// regression shifts both.
const fastQuartile = 25

// stepPercentiles returns the p-th percentile of Step wall time, in
// microseconds, of each rep.
func stepPercentiles(stepNs []float64, perRep int, p float64) []float64 {
	var byRep []float64
	for lo := 0; lo+perRep <= len(stepNs); lo += perRep {
		byRep = append(byRep, percentile(stepNs[lo:lo+perRep], p)/1e3)
	}
	return byRep
}
