package core

import (
	"testing"

	"gravel/internal/rt"
	"gravel/internal/wire"
)

// fullGrid returns an n-node grid of size per node.
func fullGrid(nodes, per int) []int {
	g := make([]int, nodes)
	for i := range g {
		g[i] = per
	}
	return g
}

func TestStepGridValidation(t *testing.T) {
	cl := New(Config{Nodes: 2})
	defer cl.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched grid did not panic")
		}
	}()
	cl.Step("bad", []int{1}, 0, func(rt.Ctx) {})
}

func TestZeroGridStep(t *testing.T) {
	cl := New(Config{Nodes: 2})
	defer cl.Close()
	ran := false
	cl.Step("empty", []int{0, 0}, 0, func(rt.Ctx) { ran = true })
	if ran {
		t.Fatal("kernel ran with empty grid")
	}
	if len(cl.Stats().Steps) != 1 {
		t.Fatal("empty step should still record a phase")
	}
}

func TestPartialGrid(t *testing.T) {
	cl := New(Config{Nodes: 3})
	defer cl.Close()
	arr := cl.Space().Alloc(16)
	cl.Step("partial", []int{64, 0, 32}, 0, func(c rt.Ctx) {
		g := c.Group()
		idx := make([]uint64, g.Size)
		one := make([]uint64, g.Size)
		g.Vector(func(l int) {
			idx[l] = uint64(c.Node())
			one[l] = 1
		})
		c.Inc(arr, idx, one, nil)
	})
	if arr.Load(0) != 64 || arr.Load(1) != 0 || arr.Load(2) != 32 {
		t.Fatalf("per-node counts: %d %d %d", arr.Load(0), arr.Load(1), arr.Load(2))
	}
}

// TestHostAMCascade: handlers that re-send must all resolve within one
// Step (quiescence loops until the cascade dies out).
func TestHostAMCascade(t *testing.T) {
	cl := New(Config{Nodes: 4})
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
		b := []uint64{99} // 100 hops total
		g.Vector(func(int) {})
		c.AM(hop, dest, a, b, nil)
	})
	if got := arr.Sum(); got != 100 {
		t.Fatalf("cascade hops = %d, want 100 (quiescence returned early?)", got)
	}
}

func TestLocalAtomicsDirect(t *testing.T) {
	for _, direct := range []bool{false, true} {
		cl := New(Config{Nodes: 2, LocalAtomicsDirect: direct})
		arr := cl.Space().Alloc(128)
		cl.Step("inc", fullGrid(2, 1024), 0, func(c rt.Ctx) {
			g := c.Group()
			idx := make([]uint64, g.Size)
			one := make([]uint64, g.Size)
			g.Vector(func(l int) {
				idx[l] = uint64(g.GlobalID(l) % 128)
				one[l] = 1
			})
			c.Inc(arr, idx, one, nil)
		})
		sum := arr.Sum()
		st := cl.Stats().Queue
		cl.Close()
		if sum != 2048 {
			t.Fatalf("direct=%v: sum=%d", direct, sum)
		}
		if st.LocalOps+st.RemoteOps != 2048 {
			t.Fatalf("direct=%v: ops=%d", direct, st.LocalOps+st.RemoteOps)
		}
	}
}

// TestPutLocalFastPath: a purely local PUT workload must not create
// wire packets.
func TestPutLocalFastPath(t *testing.T) {
	cl := New(Config{Nodes: 2})
	defer cl.Close()
	arr := cl.Space().Alloc(4096)
	part := arr.PartSize()
	cl.Step("put", fullGrid(2, part), 0, func(c rt.Ctx) {
		g := c.Group()
		idx := make([]uint64, g.Size)
		val := make([]uint64, g.Size)
		lo := uint64(c.Node() * part)
		g.Vector(func(l int) {
			idx[l] = lo + uint64(g.GlobalID(l))
			val[l] = 7
		})
		c.Put(arr, idx, val, nil)
	})
	st := cl.Stats()
	if st.Queue.RemoteOps != 0 || st.Transport.WirePackets != 0 {
		t.Fatalf("local PUTs hit the wire: %+v", st)
	}
	if arr.Sum() != 4096*7 {
		t.Fatalf("sum=%d", arr.Sum())
	}
}

// TestPutStaleMaskRegression guards the fixed bug where a lane active
// in one predicated iteration leaked a stale message in the next.
func TestPutStaleMaskRegression(t *testing.T) {
	cl := New(Config{Nodes: 2, WGSize: 64})
	defer cl.Close()
	arr := cl.Space().Alloc(1 << 12)
	counts := []int{3, 1} // lane 0 does 3 puts, lane 1 does 1
	cl.Step("put", []int{2, 0}, 0, func(c rt.Ctx) {
		g := c.Group()
		idx := make([]uint64, g.Size)
		val := make([]uint64, g.Size)
		g.PredicatedLoop(counts, 1, func(i int, active []bool) {
			g.VectorMasked(1, active, func(l int) {
				// All remote (owned by node 1).
				idx[l] = uint64(1<<11 + l*16 + i)
				val[l] = 1
			})
			c.Put(arr, idx, val, active)
		})
	})
	// Exactly 4 distinct cells must be written.
	if got := arr.Sum(); got != 4 {
		t.Fatalf("cells written sum = %d, want 4 (stale-mask resend?)", got)
	}
	st := cl.Stats().Queue
	if st.RemoteOps != 4 {
		t.Fatalf("remote ops = %d, want 4", st.RemoteOps)
	}
}

func TestPhasesAndVirtualTimeMonotone(t *testing.T) {
	cl := New(Config{Nodes: 2})
	defer cl.Close()
	arr := cl.Space().Alloc(64)
	var last float64
	for i := 0; i < 3; i++ {
		cl.Step("s", fullGrid(2, 256), 0, func(c rt.Ctx) {
			g := c.Group()
			idx := make([]uint64, g.Size)
			one := make([]uint64, g.Size)
			g.Vector(func(l int) { idx[l] = uint64(l % 64); one[l] = 1 })
			c.Inc(arr, idx, one, nil)
		})
		v := cl.VirtualTimeNs()
		if v <= last {
			t.Fatalf("virtual time not monotone: %v then %v", last, v)
		}
		last = v
	}
	steps := cl.Stats().Steps
	if len(steps) != 3 {
		t.Fatalf("steps = %d", len(steps))
	}
	for _, sp := range steps {
		if sp.VirtualNs <= 0 {
			t.Fatalf("bad step record %+v", sp)
		}
	}
}

func TestChargeHostAffectsTime(t *testing.T) {
	cl := New(Config{Nodes: 1})
	defer cl.Close()
	arr := cl.Space().Alloc(8)
	step := func() {
		cl.Step("s", []int{64}, 0, func(c rt.Ctx) {
			g := c.Group()
			idx := make([]uint64, g.Size)
			one := make([]uint64, g.Size)
			g.Vector(func(l int) { idx[l] = 0; one[l] = 1 })
			c.Inc(arr, idx, one, nil)
		})
	}
	step()
	base := cl.VirtualTimeNs()
	cl.ChargeHost(1e6)
	step()
	if got := cl.VirtualTimeNs() - base; got < 1e6 {
		t.Fatalf("host charge lost: phase delta %v < 1e6", got)
	}
}

func TestCloseIdempotent(t *testing.T) {
	cl := New(Config{Nodes: 2})
	cl.Close()
	cl.Close() // must not panic or deadlock
}

func TestDeterministicVirtualTime(t *testing.T) {
	run := func() float64 {
		cl := New(Config{Nodes: 4})
		defer cl.Close()
		arr := cl.Space().Alloc(1 << 12)
		for s := 0; s < 2; s++ {
			cl.Step("s", fullGrid(4, 4096), 0, func(c rt.Ctx) {
				g := c.Group()
				idx := make([]uint64, g.Size)
				one := make([]uint64, g.Size)
				node := uint64(c.Node())
				g.Vector(func(l int) {
					idx[l] = (node ^ uint64(g.GlobalID(l))*31) % (1 << 12)
					one[l] = 1
				})
				c.Inc(arr, idx, one, nil)
			})
		}
		return cl.VirtualTimeNs()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("virtual time nondeterministic: %v vs %v", a, b)
	}
}

func TestBadWirePacketPanics(t *testing.T) {
	// Decoding garbage ops must fail loudly, not corrupt state.
	cmd := wire.PackCmd(wire.Op(200), 0, 0)
	var buf [wire.MsgWireBytes]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(cmd >> (8 * i))
	}
	err := wire.Decode(buf[:], func(c, a, v uint64) {
		op, _, _ := wire.UnpackCmd(c)
		if op != wire.Op(200) {
			t.Fatal("op mangled")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidation(t *testing.T) {
	for _, bad := range []Config{
		{Nodes: 0},
		{Nodes: 2, WGSize: 100},         // not a WF multiple
		{Nodes: 2, ResolverShards: 3},   // not a power of two
		{Nodes: 2, ResolverShards: 128}, // above MaxResolverBanks
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Config %+v did not panic", bad)
				}
			}()
			New(bad).Close()
		}()
	}
}
