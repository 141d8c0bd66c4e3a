package agg_test

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"gravel/internal/agg"
	"gravel/internal/core"
	"gravel/internal/rt"
)

// These tests run whole clusters whose follow-up messages are staged at
// a moment when every aggregator thread is parked: the only thing that
// can move them is the wake edge under test, and a missing one hangs
// the Step, which runs under a deadline.

func stepWithin(t *testing.T, d time.Duration, step func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		step()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("Step still running after %v: a follow-up staged while the aggregators were parked never moved", d)
	}
}

// awaitAllParked spins until every node's aggregator thread is parked;
// it reports false if they are not within five seconds.
func awaitAllParked(cl *core.Cluster) bool {
	for t0 := time.Now(); time.Since(t0) < 5*time.Second; runtime.Gosched() {
		all := true
		for i := 0; i < cl.Nodes(); i++ {
			all = all && agg.Parked(cl.Node(i).Agg)
		}
		if all {
			return true
		}
	}
	return false
}

// strategies are the send paths whose kernels stage through an
// aggregation strategy: the queue (ticket) and the archive.
var strategies = []core.SendPath{core.SendQueue, core.SendArchive}

// TestHostAMChainWhileAggregatorsParked: every hop of a request/reply
// chain is staged from a resolver thread (HostAM) while all aggregator
// threads — and, by then, the Quiesce that is waiting for the hop's
// packet — are parked.
func TestHostAMChainWhileAggregatorsParked(t *testing.T) {
	const hops = 24
	for _, strategy := range strategies {
		cl := core.New(core.Config{Nodes: 4, Send: strategy})
		arr := cl.Space().Alloc(4)
		var unparked atomic.Int64
		var hop uint8
		hop = cl.RegisterAM(func(node int, a, b uint64) {
			arr.Add(uint64(node), 1)
			if b == 0 {
				return
			}
			if !awaitAllParked(cl) {
				unparked.Add(1)
			}
			cl.HostAM(node, hop, (node+1)%4, a, b-1)
		})
		stepWithin(t, time.Minute, func() {
			cl.Step("chain", []int{1, 0, 0, 0}, 0, func(c rt.Ctx) {
				c.Group().Vector(func(int) {})
				c.AM(hop, []int{1}, []uint64{0}, []uint64{hops - 1}, nil)
			})
		})
		if got := arr.Sum(); got != hops {
			t.Errorf("send path %d: %d hops resolved, want %d (quiescence returned early?)", strategy, got, hops)
		}
		if n := unparked.Load(); n != 0 {
			t.Errorf("send path %d: the aggregators were not all parked at %d of %d hops", strategy, n, hops-1)
		}
		cl.Close()
	}
}

// TestPutSignalWhileAggregatorsParked: a kernel issues a signalled put
// once every aggregator thread is parked; the peer's kernel is blocked
// in WaitUntil on that signal, so the Step can only end if the Commit
// (ticket) or the staged archive (archive) wakes the sender's
// aggregator — nothing flushes during a launch.
func TestPutSignalWhileAggregatorsParked(t *testing.T) {
	for _, strategy := range strategies {
		cl := core.New(core.Config{Nodes: 2, WGSize: 64, Send: strategy})
		data := cl.Space().SymAlloc(1)
		sig := cl.Space().SymAlloc(1)
		var unparked atomic.Bool
		stepWithin(t, time.Minute, func() {
			cl.Step("putsig", []int{1, 1}, 0, func(c rt.Ctx) {
				g := c.Group()
				mask := make([]bool, g.Size)
				mask[0] = true
				cell := make([]uint64, g.Size)
				si := make([]uint64, g.Size)
				one := make([]uint64, g.Size)
				cell[0], si[0], one[0] = data.SymIndex(1, 0), sig.SymIndex(1, 0), 1
				if c.Node() == 1 {
					c.WaitUntil(sig, si, one, mask)
					return
				}
				if !awaitAllParked(cl) {
					unparked.Store(true)
				}
				c.PutSignal(data, cell, one, sig, si, mask)
			})
		})
		if got := sig.Load(sig.SymIndex(1, 0)); got != 1 {
			t.Errorf("send path %d: signal cell = %d, want 1", strategy, got)
		}
		if unparked.Load() {
			t.Errorf("send path %d: the aggregators were not all parked when the put was issued", strategy)
		}
		cl.Close()
	}
}
