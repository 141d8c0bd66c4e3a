package core

import (
	"math/rand"
	"testing"

	"gravel/internal/rt"
)

// TestSmokeIncPutAM drives one cluster through all three operation types
// and checks functional correctness and basic accounting.
func TestSmokeIncPutAM(t *testing.T) {
	cl := New(Config{Nodes: 4})
	defer cl.Close()

	const n = 1 << 14
	arr := cl.Space().Alloc(n)
	dst := cl.Space().Alloc(n)

	var amHits [4]int64
	h := cl.RegisterAM(func(node int, a, b uint64) {
		amHits[node] += int64(b)
	})

	updatesPerNode := 1 << 14
	grid := []int{updatesPerNode, updatesPerNode, updatesPerNode, updatesPerNode}

	cl.Step("inc", grid, 0, func(c rt.Ctx) {
		g := c.Group()
		idx := make([]uint64, g.Size)
		one := make([]uint64, g.Size)
		rng := rand.New(rand.NewSource(int64(c.Node()*1000 + g.ID)))
		g.Vector(func(l int) {
			idx[l] = uint64(rng.Intn(n))
			one[l] = 1
		})
		c.Inc(arr, idx, one, nil)
	})

	if got, want := arr.Sum(), uint64(4*updatesPerNode); got != want {
		t.Fatalf("Inc sum = %d, want %d", got, want)
	}

	cl.Step("put", grid, 0, func(c rt.Ctx) {
		g := c.Group()
		idx := make([]uint64, g.Size)
		val := make([]uint64, g.Size)
		g.Vector(func(l int) {
			gid := uint64(g.GlobalID(l))
			// node i writes its own block plus a rotated block
			base := uint64(c.Node()) * uint64(dst.PartSize())
			tgt := (base + gid*7919) % uint64(n)
			idx[l] = tgt
			val[l] = tgt + 1
		})
		c.Put(dst, idx, val, nil)
	})
	// Every written cell must hold idx+1.
	bad := 0
	for i := uint64(0); i < n; i++ {
		v := dst.Load(i)
		if v != 0 && v != i+1 {
			bad++
		}
	}
	if bad != 0 {
		t.Fatalf("%d PUT cells corrupted", bad)
	}

	cl.Step("am", grid, 0, func(c rt.Ctx) {
		g := c.Group()
		dest := make([]int, g.Size)
		a := make([]uint64, g.Size)
		b := make([]uint64, g.Size)
		g.Vector(func(l int) {
			dest[l] = (c.Node() + 1 + l) % c.Nodes()
			a[l] = 0
			b[l] = 1
		})
		c.AM(h, dest, a, b, nil)
	})
	var total int64
	for _, v := range amHits {
		total += v
	}
	if want := int64(4 * updatesPerNode); total != want {
		t.Fatalf("AM hits = %d, want %d", total, want)
	}

	if cl.VirtualTimeNs() <= 0 {
		t.Fatalf("virtual time not accumulated")
	}
	ns := cl.Stats()
	if ns.Queue.LocalOps+ns.Queue.RemoteOps == 0 || ns.Transport.WirePackets == 0 {
		t.Fatalf("stats not accumulated: %+v", ns)
	}
	if n := len(cl.Stats().Steps); n != 3 {
		t.Fatalf("steps = %d, want 3", n)
	}
}
