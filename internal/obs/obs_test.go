package obs

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"gravel/internal/rt"
)

func TestKindStringRoundTrip(t *testing.T) {
	for k := Kind(1); int(k) < len(kindNames); k++ {
		s := k.String()
		if s == "unknown" || s == "" {
			t.Fatalf("kind %d has no name", k)
		}
		got, ok := KindFromString(s)
		if !ok || got != k {
			t.Fatalf("KindFromString(%q) = %v, %v; want %v, true", s, got, ok, k)
		}
	}
	if _, ok := KindFromString("no-such-kind"); ok {
		t.Fatal("KindFromString accepted an unknown name")
	}
	if Kind(0).String() != "unknown" || Kind(200).String() != "unknown" {
		t.Fatal("out-of-range kinds should stringify as unknown")
	}
}

func TestRecorderEmitAndCount(t *testing.T) {
	r := NewRecorder(Options{RingCap: 64})
	for i := 0; i < 10; i++ {
		r.Emit(KSend, 1, int64(i), 128, "")
	}
	r.Emit(KStepBegin, -1, 0, 0, "phase0")
	if got := r.Count(KSend); got != 10 {
		t.Fatalf("Count(KSend) = %d, want 10", got)
	}
	ev := r.Events()
	if len(ev) != 11 {
		t.Fatalf("Events() returned %d events, want 11", len(ev))
	}
	for i := 1; i < len(ev); i++ {
		if ev[i].TS < ev[i-1].TS {
			t.Fatalf("events not sorted: ts[%d]=%d < ts[%d]=%d", i, ev[i].TS, i-1, ev[i-1].TS)
		}
	}
}

// TestRingWrapKeepsNewest wraps one ring directly: which ring an Emit
// lands in is the sync.Pool's choice (the race detector randomises it),
// so only the per-kind count is asserted through the recorder.
func TestRingWrapKeepsNewest(t *testing.T) {
	r := NewRecorder(Options{RingCap: 8})
	rg := &ring{buf: make([]Event, 8)}
	for i := 0; i < 20; i++ {
		r.Emit(KAck, 0, int64(i), 0, "")
		rg.append(Event{TS: int64(i), Kind: KAck, A: int64(i)})
	}
	if got := r.Count(KAck); got != 20 {
		t.Fatalf("Count survived wrap wrong: got %d, want 20", got)
	}
	ev := rg.events()
	if len(ev) != 8 {
		t.Fatalf("ring should keep RingCap events, got %d", len(ev))
	}
	// Most recent 8 events are A=12..19.
	for i, e := range ev {
		if want := int64(12 + i); e.A != want {
			t.Fatalf("event %d: A=%d, want %d (oldest overwritten first)", i, e.A, want)
		}
	}
}

func TestConcurrentEmit(t *testing.T) {
	r := NewRecorder(Options{RingCap: 1 << 12})
	const goroutines, per = 8, 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Emit(KSlotReserve, g, int64(i), 0, "")
			}
		}(g)
	}
	wg.Wait()
	if got := r.Count(KSlotReserve); got != goroutines*per {
		t.Fatalf("Count = %d, want %d", got, goroutines*per)
	}
	ev := r.Events()
	if len(ev) != goroutines*per {
		t.Fatalf("Events lost records under concurrency: %d, want %d", len(ev), goroutines*per)
	}
}

func TestGlobalInstallStop(t *testing.T) {
	if Enabled() {
		t.Fatal("recorder enabled at test start")
	}
	Emit(KSend, 0, 1, 2, "") // must be a safe no-op while disabled
	r := Start(Options{RingCap: 32})
	defer Stop()
	if !Enabled() || Active() != r {
		t.Fatal("Start did not install the recorder")
	}
	Emit(KSend, 3, 1, 2, "")
	ObserveQueueWait(3, 1000)
	ObserveConsumeWait(3, 2000)
	ObserveFlushRTT(5000)
	ObserveStepWall(7000)
	if r.Count(KSend) != 1 || r.Count(KQueueStallFull) != 1 || r.Count(KQueueStallEmpty) != 1 {
		t.Fatalf("global emit miscounted: send=%d full=%d empty=%d",
			r.Count(KSend), r.Count(KQueueStallFull), r.Count(KQueueStallEmpty))
	}
	if r.QueueWait().Count() != 1 || r.FlushRTT().Count() != 1 || r.StepWall().Count() != 1 {
		t.Fatal("latency histograms not updated")
	}
	got := Stop()
	if got != r || Enabled() || Active() != nil {
		t.Fatal("Stop did not uninstall the recorder")
	}
	if len(r.Events()) == 0 {
		t.Fatal("recorder should stay drainable after Stop")
	}
}

func TestSizeHist(t *testing.T) {
	var h SizeHist
	for _, v := range []int64{1, 2, 3, 64, 65536} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.Sum() != 65606 {
		t.Fatalf("Sum = %d", h.Sum())
	}
	want := []BucketCount{{Lo: 1, N: 1}, {Lo: 2, N: 2}, {Lo: 64, N: 1}, {Lo: 65536, N: 1}}
	if b := h.Buckets(); fmt.Sprint(b) != fmt.Sprint(want) {
		t.Fatalf("Buckets = %v, want %v", b, want)
	}
}

func TestSizeHistNegativeClamped(t *testing.T) {
	var h SizeHist
	h.Observe(-5)
	if h.Sum() != 0 || h.Count() != 1 {
		t.Fatalf("negative observation mishandled: sum=%d count=%d", h.Sum(), h.Count())
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	r := NewRecorder(Options{RingCap: 64})
	r.Emit(KStepBegin, -1, 0, 0, "phase0")
	r.Emit(KSlotReserve, 2, 7, 3, "")
	r.Emit(KAggFlushTimeout, 2, 4096, 100, "")
	r.Emit(KStepEnd, -1, 123456, 789, "phase0")

	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	ev, err := ValidateJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("round-trip validation failed: %v\ntrace:\n%s", err, buf.String())
	}
	if len(ev) != 4 {
		t.Fatalf("got %d events, want 4", len(ev))
	}
	if ev[0].Kind != KStepBegin || ev[0].Tag != "phase0" || ev[0].Node != -1 {
		t.Fatalf("first event mangled: %+v", ev[0])
	}
	if ev[1].A != 7 || ev[1].B != 3 {
		t.Fatalf("args mangled: %+v", ev[1])
	}
}

func TestValidateJSONLRejects(t *testing.T) {
	cases := map[string]string{
		"bad json":      "{not json}\n",
		"bad version":   `{"v":99,"ts":1,"kind":"send","node":0}` + "\n",
		"unknown kind":  `{"v":1,"ts":1,"kind":"warp-drive","node":0}` + "\n",
		"bad node":      `{"v":1,"ts":1,"kind":"send","node":-2}` + "\n",
		"negative ts":   `{"v":1,"ts":-5,"kind":"send","node":0}` + "\n",
		"non-monotonic": `{"v":1,"ts":10,"kind":"send","node":0}` + "\n" + `{"v":1,"ts":4,"kind":"ack","node":0}` + "\n",
	}
	for name, in := range cases {
		if _, err := ValidateJSONL(strings.NewReader(in)); err == nil {
			t.Errorf("%s: validation accepted invalid trace", name)
		}
	}
}

func TestServerEndpoints(t *testing.T) {
	r := Start(Options{RingCap: 64})
	defer Stop()
	r.Emit(KSend, 0, 1, 512, "")
	ObserveFlushRTT(250_000)

	healthErr := error(nil)
	st := &rt.Stats{Version: rt.StatsVersion, Model: "gravel", Nodes: 2, VirtualNs: 1e6}
	st.Transport.WirePackets = 42
	srv, err := NewServer("127.0.0.1:0", func() error { return healthErr }, func() *rt.Stats { return st })
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	code, body := get("/healthz")
	if code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz = %d %q, want 200 ok", code, body)
	}
	healthErr = fmt.Errorf("node 1 suspected down")
	code, body = get("/healthz")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "suspected down") {
		t.Fatalf("unhealthy /healthz = %d %q, want 503", code, body)
	}

	code, body = get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	for _, want := range []string{
		`gravel_trace_events_total{kind="send"} 1`,
		"gravel_flush_rtt_ns_count 1",
		"gravel_flush_rtt_ns_bucket{le=\"+Inf\"} 1",
		"gravel_wire_packets_total 42",
		"gravel_virtual_time_ns 1e+06",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, body)
		}
	}
}
