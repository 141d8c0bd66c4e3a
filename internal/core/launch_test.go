package core

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gravel/internal/pgas"
	"gravel/internal/rt"
)

// gridStep returns a step of wgs work-groups per node over a fresh
// table: every lane of every WG of every node adds 1 to a cell spread
// over the cluster.
func gridStep(cl *Cluster, wgs int) (tab *pgas.Array, step func()) {
	nodes, wg := cl.Nodes(), cl.WGSize()
	tab = cl.Space().Alloc(1 << 10)
	grid := make([]int, nodes)
	idx := make([][]uint64, nodes)
	one := make([]uint64, wg)
	for l := range one {
		one[l] = 1
	}
	for n := range grid {
		grid[n] = wgs * wg
		idx[n] = make([]uint64, wg)
		for l := range idx[n] {
			idx[n][l] = uint64((n*wg+l)*7) % uint64(tab.Len())
		}
	}
	kernel := func(c rt.Ctx) { c.Inc(tab, idx[c.Node()], one, nil) }
	return tab, func() { cl.Step("fine", grid, 0, kernel) }
}

// fineStep is the one-WG-per-node gridStep.
func fineStep(cl *Cluster) (tab *pgas.Array, step func()) { return gridStep(cl, 1) }

// TestFineStepsSmoke is the fine-steps shape end to end: 2000 one-WG
// steps on two nodes, launched on the Step goroutine and one device
// thread, and every increment lands exactly once.
func TestFineStepsSmoke(t *testing.T) {
	const steps = 2000
	cl := New(Config{Nodes: 2})
	defer cl.Close()
	tab, step := fineStep(cl)
	for s := 0; s < steps; s++ {
		step()
	}
	if got, want := tab.Sum(), uint64(steps*2*cl.WGSize()); got != want {
		t.Fatalf("table sum %d after %d steps, want %d", got, steps, want)
	}
}

// TestWarmStepAllocs pins a warm Step at zero objects, at one resolver
// shard and at several: the kernel adapter, launch state and completion
// state are reused, each group keeps its ctx, the ledger readings reuse
// their per-bank slices, and once the step ledger's ring is full a step
// overwrites the oldest record in place. AllocsPerRun rounds an average
// under one object a step down to 0: that absorbs a rare runtime
// allocation (a sudog for a contended lock), but also amortised growth,
// so the ring's bound is TestStepLedgerBounded's to check.
//
// wgs=64 steps 64 WGs per node, whose launches spawn workers, and
// counts every object of 500 warm steps, at one P as AllocsPerRun runs.
// It warms up at every P first: their interleavings reach the in-flight
// high-water of packet buffers and outbox sooner (warmed at one P only,
// a rare schedule passed it in about 1 run in 100, and the new buffers
// counted). Then, at one P, it holds every worker's group at once
// (holdWorkers) and fills the P's sudog cache (primeSudogs), so that
// neither depends on the schedule.
func TestWarmStepAllocs(t *testing.T) {
	var pool sync.Pool
	for i := 0; i < 64; i++ {
		if pool.Put(new(int)); pool.Get() == nil {
			t.Skip("sync.Pool drops puts at random under the race detector, and wire.GetBuf refills from one")
		}
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection empties the sync.Pool behind wire.GetBuf
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cl := New(Config{Nodes: 2, ResolverShards: shards})
			defer cl.Close()
			_, step := fineStep(cl)
			for i := 0; i < stepWindow; i++ {
				step()
			}
			if n := testing.AllocsPerRun(500, step); n != 0 {
				t.Errorf("a warm 2-node, one-WG Step allocates %.2f objects, want 0", n)
			}
		})
	}
	t.Run("wgs=64", func(t *testing.T) {
		const wgs, steps = 64, 500
		cl := New(Config{Nodes: 2})
		defer cl.Close()
		_, step := gridStep(cl, wgs)
		for i := 0; i < 2*stepWindow; i++ {
			step()
		}
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		holdWorkers(cl, wgs)
		primeSudogs(64)
		for i := 0; i < stepWindow; i++ {
			step()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < steps; i++ {
			step()
		}
		runtime.ReadMemStats(&after)
		if n := after.Mallocs - before.Mallocs; n != 0 {
			t.Errorf("%d warm 2-node Steps of %d WGs per node allocate %d objects, want 0", steps, wgs, n)
		}
	})
}

// primeSudogs blocks n goroutines at once and lets them go, so that
// the one P's cache holds n of the runtime sudogs a blocked goroutine
// takes. Otherwise a measured step that blocks more goroutines at once
// than any before (the device thread parking in its sync.Cond while
// the aggregator threads sit in theirs) allocates one.
func primeSudogs(n int) {
	release := make(chan struct{})
	var blocked sync.WaitGroup
	blocked.Add(n)
	for range n {
		go func() { blocked.Done(); <-release }()
	}
	blocked.Wait()
	close(release)
}

// holdWorkers runs a step of wgs WGs per node in which each node's
// first workers WGs wait for one another, so that every worker of a
// launch holds a group (and the group its ctx) at the same time. At one
// P a launch's workers mostly run one after another, so without this
// the groups a device has made depend on the schedule, and a group
// first made in a measured step would count.
func holdWorkers(cl *Cluster, wgs int) {
	workers := min(cl.nodes[0].GPU.Parallelism, wgs)
	grid := make([]int, cl.Nodes())
	for n := range grid {
		grid[n] = wgs * cl.WGSize()
	}
	arrived := make([]atomic.Int32, cl.Nodes())
	cl.Step("hold", grid, 0, func(c rt.Ctx) {
		if a := &arrived[c.Node()]; c.Group().ID < workers {
			for a.Add(1); int(a.Load()) < workers; {
				runtime.Gosched()
			}
		}
	})
}

// TestParkedDeviceThreadTakesLaunch: a device thread left idle for
// longer than its spin has parked, and the next launch must wake it.
func TestParkedDeviceThreadTakesLaunch(t *testing.T) {
	cl := New(Config{Nodes: 3})
	defer cl.Close()
	tab, step := fineStep(cl)
	for round := 1; round <= 3; round++ {
		for t0 := time.Now(); cl.nodes[0].dev.next.Parked()+cl.nodes[1].dev.next.Parked() < 2; runtime.Gosched() {
			if time.Since(t0) > 10*time.Second {
				t.Fatal("idle device threads did not park within 10 s")
			}
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			step()
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("a Step handed to parked device threads did not finish (lost wake-up?)")
		}
		if got, want := tab.Sum(), uint64(round*3*cl.WGSize()); got != want {
			t.Fatalf("table sum %d after round %d, want %d", got, round, want)
		}
	}
	if cl.nodes[2].dev != nil {
		t.Error("the last hosted node has a device thread; only a fan-out's caller ever runs it")
	}
}

// TestCloseStopsDeviceThreads: Close returns the goroutine count to
// what it was before New, whether the threads were spinning or parked
// and whether or not they ever ran a launch.
func TestCloseStopsDeviceThreads(t *testing.T) {
	// settle gives exiting goroutines up to 5 s to be gone.
	settle := func(want int) int {
		n := runtime.NumGoroutine()
		for t0 := time.Now(); n > want && time.Since(t0) < 5*time.Second; n = runtime.NumGoroutine() {
			runtime.Gosched()
		}
		return n
	}
	base := runtime.NumGoroutine()
	for _, steps := range []int{0, 3} {
		cl := New(Config{Nodes: 4})
		if n := runtime.NumGoroutine(); n < base+3 {
			t.Errorf("%d goroutines with a 4-node cluster up, %d before: no device threads?", n, base)
		}
		_, step := fineStep(cl)
		for s := 0; s < steps; s++ {
			step()
		}
		cl.Close()
		if n := settle(base); n > base {
			t.Errorf("%d goroutines after Close (%d steps), %d before New", n, steps, base)
		}
	}
}

// TestWaitUntilChainAcrossDeviceThreads: a 4-node ring of signalled
// puts in which every node waits on its predecessor — the node the Step
// goroutine runs inline waits on one a device thread runs, and the
// chain starts at a device-thread node, so it completes only if the
// nodes of one launch really run side by side.
func TestWaitUntilChainAcrossDeviceThreads(t *testing.T) {
	const nodes = 4
	cl := New(Config{Nodes: nodes})
	defer cl.Close()
	data, sig := cl.Space().SymAlloc(1), cl.Space().SymAlloc(1)
	grid := []int{1, 1, 1, 1}
	kernel := func(c rt.Ctx) {
		g, me := c.Group(), c.Node()
		mask := make([]bool, g.Size)
		mask[0] = true
		at := func(arr *pgas.Array, node int) []uint64 {
			v := make([]uint64, g.Size)
			v[0] = arr.SymIndex(node, 0)
			return v
		}
		hops := uint64(1)
		if me != 0 { // node 0 starts the chain; the others pass it on
			until := make([]uint64, g.Size)
			until[0] = 1
			c.WaitUntil(sig, at(sig, me), until, mask)
			hops = data.Load(data.SymIndex(me, 0)) + 1
		}
		if next := me + 1; next < nodes {
			val := make([]uint64, g.Size)
			val[0] = hops
			c.PutSignal(data, at(data, next), val, sig, at(sig, next), mask)
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		cl.Step("chain", grid, 0, kernel)
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("the chain did not complete: the inline node's wait kept a device-thread node from running?")
	}
	if got := data.Load(data.SymIndex(nodes-1, 0)); got != nodes-1 {
		t.Fatalf("the last node received hop count %d, want %d", got, nodes-1)
	}
}
