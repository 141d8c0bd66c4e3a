package models_test

import (
	"testing"

	"gravel/internal/core"
	"gravel/internal/graph"
	"gravel/internal/models"
	"gravel/internal/rt"
)

// verbCharges is everything TestVerbChargesGolden pins for one system:
// the device counters summed over nodes and the locality counts. All
// of it is a pure function of the kernel — no packet counts, no net
// clock, nothing the goroutine schedule can move.
type verbCharges struct {
	VectorOps, Cycles, Atomics, Barriers, WGLaunches, DivergedOps, Messages int64
	LocalOps, RemoteOps                                                     int64
}

// verbSums is the final global state, identical under every system.
type verbSums struct {
	Inc, Put, AM, Data, Sig uint64
}

// goldenCharges were recorded at the commit before the verb front-end
// existed (four hand-written rt.Ctx implementations); the front-end and
// its offloaders must reproduce them exactly.
var goldenCharges = map[string]verbCharges{
	"coprocessor":     {VectorOps: 11576, Cycles: 395640, Atomics: 248, Barriers: 496, WGLaunches: 12, DivergedOps: 1212, Messages: 11799, LocalOps: 3159, RemoteOps: 9809},
	"coprocessor+buf": {VectorOps: 11576, Cycles: 395640, Atomics: 248, Barriers: 496, WGLaunches: 12, DivergedOps: 1212, Messages: 11799, LocalOps: 3159, RemoteOps: 9809},
	"msg-per-lane":    {VectorOps: 4768, Cycles: 57328, Atomics: 152, Barriers: 224, WGLaunches: 12, DivergedOps: 252, Messages: 11799, LocalOps: 3159, RemoteOps: 9809},
	"coalesced":       {VectorOps: 4024, Cycles: 339088, Atomics: 248, Barriers: 152, WGLaunches: 12, DivergedOps: 372, Messages: 11799, LocalOps: 3159, RemoteOps: 9809},
	"coalesced+agg":   {VectorOps: 4024, Cycles: 71248, Atomics: 248, Barriers: 152, WGLaunches: 12, DivergedOps: 372, Messages: 11799, LocalOps: 3159, RemoteOps: 9809},
	"gravel":          {VectorOps: 4768, Cycles: 57328, Atomics: 152, Barriers: 224, WGLaunches: 12, DivergedOps: 252, Messages: 11799, LocalOps: 3159, RemoteOps: 9809},
	"gravel-archive":  {VectorOps: 1652, Cycles: 156896, Atomics: 748, Barriers: 0, WGLaunches: 12, DivergedOps: 222, Messages: 11799, LocalOps: 3159, RemoteOps: 9809},
	"cpu-only":        {VectorOps: 293280, Cycles: 27038000, Atomics: 152, Barriers: 224, WGLaunches: 12, DivergedOps: 15512, Messages: 11799, LocalOps: 3159, RemoteOps: 9809},
	"gravel+direct":   {VectorOps: 4536, Cycles: 254632, Atomics: 1147, Barriers: 200, WGLaunches: 12, DivergedOps: 372, Messages: 10804, LocalOps: 3159, RemoteOps: 9809},
}

var goldenSums = verbSums{Inc: 0x3f69, Put: 0x8949ec55d2b1ba14, AM: 0xcb764e87d2953e27, Data: 0x79fe90ba4f1d935e, Sig: 0x308}

// runVerbMix drives every rt.Ctx verb through sys with nil, partial and
// all-inactive masks and local as well as remote lanes, and returns
// the charges and the final state.
func runVerbMix(sys rt.System) (verbCharges, verbSums) {
	const (
		seed    = 0x9e3779b97f4a7c15
		perNode = 2*256 + 100 // two full work-groups and a partial one
	)
	nodes := sys.Nodes()
	total := uint64(nodes * perNode)
	acc := sys.Space().Alloc(1 << 10)
	slots := sys.Space().Alloc(int(total)) // one private cell per work-item
	data := sys.Space().SymAlloc(256)
	sig := sys.Space().SymAlloc(1)
	am := make([]uint64, nodes)
	h := sys.RegisterAM(func(node int, a, b uint64) { am[node] += a ^ b })

	grid := make([]int, nodes)
	for i := range grid {
		grid[i] = perNode
	}
	sys.Step("verbs", grid, 0, func(c rt.Ctx) {
		g := c.Group()
		me := uint64(c.Node())
		idx := make([]uint64, g.Size)
		val := make([]uint64, g.Size)
		si := make([]uint64, g.Size)
		dst := make([]int, g.Size)
		some := make([]bool, g.Size)
		none := make([]bool, g.Size)
		hash := func(l int, salt uint64) uint64 {
			return graph.Hash64(seed ^ me<<40 ^ uint64(g.GlobalID(l))<<8 ^ salt)
		}

		// Inc, every lane, uniform over the table.
		g.Vector(func(l int) {
			idx[l] = hash(l, 1) % uint64(acc.Len())
			val[l] = 1 + hash(l, 2)%7
		})
		c.Inc(acc, idx, val, nil)

		// Inc again under a partial mask, then with no lane active.
		g.Vector(func(l int) { some[l] = hash(l, 3)%3 != 0 })
		c.Inc(acc, idx, val, some)
		c.Inc(acc, idx, val, none)

		// Put to the work-item's private cell; the stride spreads the
		// cells over every owner, so each WG has local and remote lanes.
		g.Vector(func(l int) {
			idx[l] = (me*perNode + uint64(g.GlobalID(l))) * 7 % total
			val[l] = hash(l, 4) | 1
		})
		c.Put(slots, idx, val, nil)
		c.Put(slots, idx, val, some)
		c.Put(slots, idx, val, none)

		// AM to a hashed destination (self included).
		g.Vector(func(l int) {
			dst[l] = int(hash(l, 5) % uint64(nodes))
			idx[l] = hash(l, 6)
			val[l] = hash(l, 7) >> 7
		})
		c.AM(h, dst, idx, val, nil)
		c.AM(h, dst, idx, val, some)
		c.AM(h, dst, idx, val, none)

		// Each node's first work-group signal-puts a masked row into its
		// right-hand neighbour's bank, then waits for the row its
		// left-hand neighbour sends. The mask depends on the lane alone,
		// so every node sends, and expects, the same count.
		c.PutSignal(data, idx, val, sig, si, none)
		c.WaitUntil(sig, si, val, none)
		if g.ID != 0 {
			return
		}
		next := (c.Node() + 1) % nodes
		sent := uint64(0)
		g.Vector(func(l int) {
			some[l] = graph.Hash64(seed^uint64(l))%4 != 0
			if some[l] {
				sent++
			}
			idx[l] = data.SymIndex(next, l)
			val[l] = hash(l, 8) | 1
			si[l] = sig.SymIndex(next, 0)
		})
		c.PutSignal(data, idx, val, sig, si, some)
		g.Vector(func(l int) {
			si[l] = sig.SymIndex(c.Node(), 0)
			val[l] = sent
		})
		none[0] = true // a single waiting lane ...
		c.WaitUntil(sig, si, val, none)
		c.WaitUntil(sig, si, val, nil) // ... then all of them, already satisfied
	})

	var ch verbCharges
	cl := sys.(interface{ Node(int) *core.Node })
	for i := 0; i < nodes; i++ {
		n := cl.Node(i)
		ctr := &n.GPU.Counters
		ch.VectorOps += ctr.VectorOps.Load()
		ch.Cycles += ctr.Cycles.Load()
		ch.Atomics += ctr.Atomics.Load()
		ch.Barriers += ctr.Barriers.Load()
		ch.WGLaunches += ctr.WGLaunches.Load()
		ch.DivergedOps += ctr.DivergedOps.Load()
		ch.Messages += ctr.Messages.Load()
		s := n.Clocks.Snapshot()
		ch.LocalOps += s.LocalOps
		ch.RemoteOps += s.RemoteOps
	}
	var sums verbSums
	sums.Inc = acc.Sum()
	sums.Put = checksum(slots)
	for _, v := range am {
		sums.AM += v
	}
	sums.Data = checksum(data)
	sums.Sig = sig.Sum()
	return ch, sums
}

// TestVerbChargesGolden is the proof that moving the verbs onto one
// front-end moved no modeled cost: a fixed mixed-verb kernel on 4 nodes
// must charge every system exactly what the per-model contexts charged,
// and leave the same global state.
func TestVerbChargesGolden(t *testing.T) {
	const nodes = 4
	systems := append(models.Names(), "cpu-only", "gravel+direct")
	for _, name := range systems {
		var sys rt.System
		if name == "gravel+direct" {
			sys = core.New(core.Config{Nodes: nodes, LocalAtomicsDirect: true})
		} else {
			sys = models.New(name, nodes, nil)
		}
		ch, sums := runVerbMix(sys)
		sys.Close()
		if ch != goldenCharges[name] {
			t.Errorf("%s: charges moved:\n got  %#v\n want %#v", name, ch, goldenCharges[name])
		}
		if sums != goldenSums {
			t.Errorf("%s: final state moved:\n got  %#v\n want %#v", name, sums, goldenSums)
		}
	}
}
