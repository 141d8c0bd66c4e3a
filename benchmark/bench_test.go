package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
)

var smoke = shape{wgs: 4, rounds: mixedRounds, stepsPerRep: 3, distinct: 2}

func TestStreamDeterministicPerSeed(t *testing.T) {
	a := genStream(13, "w", smoke, distZipf)
	b := genStream(13, "w", smoke, distZipf)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed and name gave different streams")
	}
	if c := genStream(17, "w", smoke, distZipf); reflect.DeepEqual(a.idx, c.idx) {
		t.Fatal("different seeds gave the same index table")
	}
	if c := genStream(13, "x", smoke, distZipf); reflect.DeepEqual(a.idx, c.idx) {
		t.Fatal("different workload names gave the same index table")
	}
}

func TestStreamOracleCountsEveryMessage(t *testing.T) {
	s := genStream(13, "w", smoke, distUniform)
	perStep := int64(nodes * smoke.wgs * wgSize)
	for d := 0; d < smoke.distinct; d++ {
		if s.incs[d] != 2*perStep {
			t.Errorf("step %d: %d increments, want %d (two Inc rounds)", d, s.incs[d], 2*perStep)
		}
		if am := s.amSum[d][0] + s.amSum[d][1]; am <= 0 {
			t.Errorf("step %d: AM sums %v", d, s.amSum[d])
		}
		// Inc and AM always travel; a Put only when its slot is remote,
		// which a uniform permutation makes about half of them.
		puts := s.msgs[d] - 3*perStep
		if puts < perStep/4 || puts > 3*perStep/4 {
			t.Errorf("step %d: %d of %d puts remote", d, puts, perStep)
		}
	}
	if got, want := s.repMsgs(), 2*s.msgs[0]+s.msgs[1]; got != want {
		t.Errorf("repMsgs = %d, want %d (steps replay streams 0,1,0)", got, want)
	}
	// Put slots are a permutation: every slot written exactly once per step.
	seen := make(map[uint32]bool)
	for node := 0; node < nodes; node++ {
		for wg := 0; wg < smoke.wgs; wg++ {
			for _, slot := range s.idx[s.at(0, node, wg, 1):][:wgSize] {
				if seen[slot] {
					t.Fatalf("put slot %d written twice in one step", slot)
				}
				seen[slot] = true
			}
		}
	}
	if len(seen) != s.putSlots() {
		t.Errorf("%d distinct put slots, want %d", len(seen), s.putSlots())
	}
}

func TestPeerDistributionIsAllRemote(t *testing.T) {
	sh := shape{wgs: 2, rounds: bulkRounds, stepsPerRep: 1, distinct: 1}
	s := genStream(13, "w", sh, distPeer)
	for node := 0; node < nodes; node++ {
		for _, i := range s.idx[s.at(0, node, 0, 0) : s.at(0, node, 0, 0)+sh.wgs*len(sh.rounds)*wgSize] {
			if owner(i) == node {
				t.Fatalf("node %d drew its own index %d", node, i)
			}
		}
	}
}

// hotShare is the analytic probability of rank 0 under zipf(s=1) over
// n items: 1/H_n, with H_n from its asymptotic expansion.
func hotShare(n int) float64 {
	return 1 / (math.Log(float64(n)) + 0.5772156649 + 1/(2*float64(n)))
}

func TestZipfHotWordShare(t *testing.T) {
	const n, draws = 1 << 12, 200_000
	z := newZipf(n)
	r := rng(13)
	hot := 0
	for i := 0; i < draws; i++ {
		if z.draw(&r) == 0 {
			hot++
		}
	}
	got, want := float64(hot)/draws, hotShare(n)
	if math.Abs(got-want) > 0.1*want {
		t.Fatalf("rank 0 drew %.4f of samples, zipf(1) over %d items says %.4f", got, n, want)
	}
	if want := 1 / 8.8925; math.Abs(hotShare(n)-want) > 1e-3 { // H_4096 = 8.8925
		t.Fatalf("hotShare(%d) = %v, want %v", n, hotShare(n), want)
	}
}

func TestPercentileHelpers(t *testing.T) {
	xs := []float64{9, 1, 5, 3, 7} // sorted: 1 3 5 7 9
	if m := median(xs); m != 5 {
		t.Errorf("median = %v, want 5", m)
	}
	if q1, q3 := quartiles(xs); q1 != 3 || q3 != 7 {
		t.Errorf("quartiles = %v, %v, want 3, 7", q1, q3)
	}
	if p := percentile(xs, 90); math.Abs(p-8.2) > 1e-12 {
		t.Errorf("p90 = %v, want 8.2", p)
	}
	if p := percentile([]float64{4, 2}, 50); p != 3 {
		t.Errorf("median of two = %v, want 3", p)
	}
	if p := percentile(xs, 100); p != 9 {
		t.Errorf("p100 = %v, want 9", p)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
	if xs[0] != 9 {
		t.Error("percentile sorted its argument in place")
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{Name: "root", ID: 0, Parent: -1, Start: 0, End: 100},
		{Name: "a", ID: 1, Parent: 0, Start: 10, End: 40},
		{Name: "b", ID: 2, Parent: 0, Start: 30, End: 60},    // overlaps a: the union 10..60 is counted once
		{Name: "b", ID: 3, Parent: 0, Start: 90, End: 120},   // clipped to the parent's end
		{Name: "leaf", ID: 4, Parent: 1, Start: 15, End: 20}, // grandchild: only a's self time shrinks
	}
	got := selfTimes(spans)
	want := map[string]int64{"root": 100 - 50 - 10, "a": 30 - 5, "b": 30 + 30, "leaf": 5}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("self times = %v, want %v", got, want)
	}
}

func TestRecorderOffRecordsNothing(t *testing.T) {
	var none *recorder
	none.end(none.begin("x", -1, 0))
	r := newRecorder()
	r.end(r.begin("x", -1, 0))
	if len(r.spans) != 0 {
		t.Fatal("a switched-off recorder kept a span")
	}
	r.on = true
	id := r.begin("x", -1, 7)
	r.end(id)
	if s := r.spans[id]; s.Rep != 7 || s.End < s.Start {
		t.Fatalf("bad span %+v", s)
	}
}

func TestCompareVerdicts(t *testing.T) {
	old := metric{Value: 100, Q1: 99, Q3: 101}
	for _, tc := range []struct {
		cur  metric
		want string
	}{
		{metric{Value: 105, Q1: 104, Q3: 106, Better: "lower", Bound: 0.10}, "ok"},
		{metric{Value: 115, Q1: 114, Q3: 116, Better: "lower", Bound: 0.10}, "REGRESSION"},
		{metric{Value: 85, Q1: 84, Q3: 86, Better: "higher", Bound: 0.10}, "REGRESSION"},
		{metric{Value: 115, Q1: 114, Q3: 116, Better: "higher", Bound: 0.10}, "ok"},
		{metric{Value: 115, Q1: 100, Q3: 130, Better: "lower", Bound: 0.10}, "unresolved"},
	} {
		if got := verdictOf(old, tc.cur); got != tc.want {
			t.Errorf("verdictOf(%v -> %v %s) = %s, want %s", old.Value, tc.cur.Value, tc.cur.Better, got, tc.want)
		}
	}
}

// TestSmokeWorkload builds the mixed workload at smoke scale on the
// chan fabric and checks a rep against the oracle end to end.
func TestSmokeWorkload(t *testing.T) {
	sp := specs[3]
	sp.sh = smoke
	in, err := build(&sp, 13)
	if err != nil {
		t.Fatal(err)
	}
	defer in.close()
	rec := newRecorder()
	rec.on = true
	r := in.rep(rec, 0)
	if !r.ok {
		t.Fatal(in.failure)
	}
	if r.msgs != in.st.repMsgs() || r.modelNs <= 0 || r.wallNs <= 0 {
		t.Fatalf("rep measured %+v", r)
	}
	if len(rec.spans) != 1+smoke.stepsPerRep {
		t.Fatalf("%d spans, want one per rep and step", len(rec.spans))
	}
	in.am[0].Add(1) // a lost or duplicated message must fail the oracle
	if in.check(r.msgs) {
		t.Fatal("oracle accepted a wrong AM sum")
	}
}

// TestBenchmarkJSONMatches keeps /BENCHMARK.json in step with the
// tables the program reports from.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Why, Unit, Better string
		Bound                   float64
	}
	var doc struct {
		Workloads []entry
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(specs) {
		t.Fatalf("%d workloads declared, %d built in", len(doc.Workloads), len(specs))
	}
	for i, w := range doc.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, the program %q / %q", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
	}
	same := func(kind string, got []entry, want []def) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics declared, %d reported", kind, len(got), len(want))
		}
		for i, e := range got {
			if d := want[i]; e.Name != d.name || e.Unit != d.unit || e.Better != d.better || e.Bound != d.bound {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the program %+v", kind, i, e, d)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, e2eDefs)
	same("per_layer", doc.PerLayer, layerDefs)
}
