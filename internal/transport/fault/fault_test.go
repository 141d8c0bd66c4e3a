package fault

import (
	"net"
	"testing"
	"time"
)

// sinkConn is a minimal net.Conn that records every Write, so tests
// can compare the exact byte stream a faulted link produced.
type sinkConn struct {
	net.Conn
	writes [][]byte
	closed bool
}

func (s *sinkConn) Write(b []byte) (int, error) {
	s.writes = append(s.writes, append([]byte(nil), b...))
	return len(b), nil
}
func (s *sinkConn) Close() error { s.closed = true; return nil }

// frame fabricates a write of the transport's shape: a 36-byte header
// plus payload.
func testFrame(i int) []byte {
	b := make([]byte, headerBytes+16)
	for j := range b {
		b[j] = byte(i + j)
	}
	return b
}

func runSchedule(t *testing.T, cfg *Config, frames int) ([][]byte, []Entry) {
	t.Helper()
	in := New(cfg)
	if in == nil {
		t.Fatal("enabled config produced a nil injector")
	}
	sink := &sinkConn{}
	c := in.WrapConn(sink, 0, 1)
	for i := 0; i < frames; i++ {
		c.Write(testFrame(i))
	}
	return sink.writes, in.Log()
}

// TestDeterministicReplay is the chaos contract: the same seed must
// reproduce the same per-link fault schedule — same decisions at the
// same frame indices, same bytes on the wire.
func TestDeterministicReplay(t *testing.T) {
	cfg := &Config{Seed: 42, Drop: 0.1, Dup: 0.1, Reorder: 0.1, Corrupt: 0.1, Sever: 0.05}
	w1, l1 := runSchedule(t, cfg, 200)
	w2, l2 := runSchedule(t, cfg, 200)
	if len(l1) == 0 {
		t.Fatal("schedule injected no faults at these probabilities")
	}
	if len(l1) != len(l2) {
		t.Fatalf("replay diverged: %d vs %d faults", len(l1), len(l2))
	}
	for i := range l1 {
		if l1[i].Kind != l2[i].Kind || l1[i].Frame != l2[i].Frame {
			t.Fatalf("fault %d diverged: %v vs %v", i, l1[i], l2[i])
		}
	}
	if len(w1) != len(w2) {
		t.Fatalf("replay wrote %d vs %d frames", len(w1), len(w2))
	}
	for i := range w1 {
		if string(w1[i]) != string(w2[i]) {
			t.Fatalf("write %d diverged", i)
		}
	}

	other, _ := runSchedule(t, &Config{Seed: 43, Drop: 0.1, Dup: 0.1, Reorder: 0.1, Corrupt: 0.1, Sever: 0.05}, 200)
	same := len(other) == len(w1)
	if same {
		for i := range w1 {
			if string(other[i]) != string(w1[i]) {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules")
	}
}

// TestDisabledIsPassThrough pins the production path: a nil config
// yields a nil injector whose hooks return their arguments unchanged
// without allocating.
func TestDisabledIsPassThrough(t *testing.T) {
	in := New(nil)
	if in != nil {
		t.Fatal("nil config produced a non-nil injector")
	}
	if in.Enabled() {
		t.Fatal("nil injector claims to be enabled")
	}
	var c net.Conn = &sinkConn{}
	if allocs := testing.AllocsPerRun(100, func() {
		if in.WrapConn(c, 0, 1) != c {
			t.Fatal("WrapConn changed the conn")
		}
		if in.LinkBlocked(0, 1) {
			t.Fatal("nil injector blocked a link")
		}
	}); allocs != 0 {
		t.Fatalf("disabled pass-through allocates %.1f per op", allocs)
	}
	if New(&Config{Seed: 9}) != nil {
		t.Fatal("schedule with no faults produced a non-nil injector")
	}
}

// Enabled injector on a clean schedule must still pass frames through
// untouched.
func TestNoFaultFramesUntouched(t *testing.T) {
	cfg := &Config{Seed: 1, Blackouts: []Blackout{{Node: 3, Start: time.Hour, Duration: time.Second}}}
	in := New(cfg)
	sink := &sinkConn{}
	c := in.WrapConn(sink, 0, 1)
	f := testFrame(7)
	if _, err := c.Write(f); err != nil {
		t.Fatal(err)
	}
	if len(sink.writes) != 1 || string(sink.writes[0]) != string(f) {
		t.Fatalf("clean link altered the frame")
	}
	if got := in.Counters().Total(); got != 0 {
		t.Fatalf("clean link recorded %d faults", got)
	}
}

func TestCorruptFlipsExactlyOnePayloadByte(t *testing.T) {
	in := New(&Config{Seed: 5, Corrupt: 1})
	sink := &sinkConn{}
	c := in.WrapConn(sink, 0, 1)
	f := testFrame(3)
	c.Write(f)
	if len(sink.writes) != 1 {
		t.Fatalf("wrote %d frames, want 1", len(sink.writes))
	}
	diff := 0
	at := -1
	for i := range f {
		if sink.writes[0][i] != f[i] {
			diff++
			at = i
		}
	}
	if diff != 1 || at < headerBytes {
		t.Fatalf("corruption flipped %d bytes (last at %d); want exactly 1 in the payload", diff, at)
	}
}

func TestSeverMaxBoundsSeversPerLink(t *testing.T) {
	in := New(&Config{Seed: 8, Sever: 1, SeverMax: 2})
	sink := &sinkConn{}
	c := in.WrapConn(sink, 0, 1)
	for i := 0; i < 10; i++ {
		c.Write(testFrame(i))
	}
	if got := in.Counters().Sever; got != 2 {
		t.Fatalf("injected %d severs, want SeverMax=2", got)
	}
}

func TestBlackoutAndPartitionWindows(t *testing.T) {
	in := New(&Config{
		Seed:       1,
		Blackouts:  []Blackout{{Node: 2, Start: 0, Duration: 50 * time.Millisecond}},
		Partitions: []Partition{{From: 0, To: 1, Start: 0, Duration: 50 * time.Millisecond}},
	})
	if !in.LinkBlocked(2, 3) || !in.LinkBlocked(3, 2) {
		t.Fatal("blackout did not cut links touching the node")
	}
	if !in.LinkBlocked(0, 1) {
		t.Fatal("partition did not cut from->to")
	}
	if in.LinkBlocked(1, 0) {
		t.Fatal("asymmetric partition cut the reverse direction")
	}
	sink := &sinkConn{}
	c := in.WrapConn(sink, 0, 1)
	if _, err := c.Write(testFrame(0)); err == nil {
		t.Fatal("write over a partitioned link succeeded")
	}
	time.Sleep(60 * time.Millisecond)
	if in.LinkBlocked(2, 3) || in.LinkBlocked(0, 1) {
		t.Fatal("windows did not expire")
	}
}

func TestReorderSwapsAdjacentFrames(t *testing.T) {
	// With reorder=1 every frame is held and released by its successor:
	// frames come out one behind, pairwise swapped.
	in := New(&Config{Seed: 2, Reorder: 1})
	sink := &sinkConn{}
	c := in.WrapConn(sink, 0, 1)
	f0, f1 := testFrame(0), testFrame(1)
	c.Write(f0)
	if len(sink.writes) != 0 {
		t.Fatal("held frame was written immediately")
	}
	c.Write(f1)
	if len(sink.writes) != 2 || string(sink.writes[0]) != string(f1) || string(sink.writes[1]) != string(f0) {
		t.Fatalf("expected [f1, f0] after the transposition, got %d writes", len(sink.writes))
	}
}

func TestSpecRoundTrip(t *testing.T) {
	spec := "seed=7,drop=0.02,dup=0.01,reorder=0.015,corrupt=0.005," +
		"delay=0.2:5ms,stall=0.001:200ms,sever=0.002:1," +
		"blackout=2@1s+500ms,part=0>1@2s+1s"
	cfg, err := Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Seed != 7 || cfg.Drop != 0.02 || cfg.DelayMax != 5*time.Millisecond ||
		cfg.SeverMax != 1 || len(cfg.Blackouts) != 1 || len(cfg.Partitions) != 1 {
		t.Fatalf("parsed %+v", cfg)
	}
	if cfg.Blackouts[0] != (Blackout{Node: 2, Start: time.Second, Duration: 500 * time.Millisecond}) {
		t.Fatalf("blackout parsed as %+v", cfg.Blackouts[0])
	}
	cfg2, err := Parse(cfg.String())
	if err != nil {
		t.Fatalf("re-parsing %q: %v", cfg.String(), err)
	}
	if cfg.String() != cfg2.String() {
		t.Fatalf("round trip diverged: %q vs %q", cfg.String(), cfg2.String())
	}

	if c, err := Parse(""); err != nil || c != nil {
		t.Fatalf("empty spec: %v %v", c, err)
	}
	if c, err := Parse("off"); err != nil || c != nil {
		t.Fatalf("off spec: %v %v", c, err)
	}
	for _, bad := range []string{"drop=2", "drop=NaN", "nope=1", "blackout=1", "delay=0.5:-1ms", "part=0-1@1s+1s"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}

// FuzzFaultParse: a fault spec arrives from a flag, an environment
// variable or a job request, so Parse returns a config or an error and
// never panics, and what it accepts renders (String) to a spec that
// parses back to the same rendering.
func FuzzFaultParse(f *testing.F) {
	for _, s := range []string{
		"", "off", "seed=7", "drop=2", "nope=1", "blackout=1", "delay=0.5:-1ms", "part=0-1@1s+1s",
		"seed=7,drop=0.02,dup=0.01,reorder=0.015,corrupt=0.005,delay=0.2:5ms,stall=0.001:200ms,sever=0.002:1,blackout=2@1s+500ms,part=0>1@2s+1s",
		"blackout=1@2s+1s,blackout=0@2s+3s,part=1>0@0s+1ns",
		"drop=NaN,sever=0.5:-3,delay=1e-9",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		cfg, err := Parse(spec)
		if err != nil {
			if cfg != nil {
				t.Fatalf("Parse(%q) returned both a config and %v", spec, err)
			}
			return
		}
		s := cfg.String()
		cfg2, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q) rendered %q, which does not parse: %v", spec, s, err)
		}
		if s2 := cfg2.String(); s2 != s {
			t.Fatalf("Parse(%q) rendered %q, which renders %q", spec, s, s2)
		}
	})
}
