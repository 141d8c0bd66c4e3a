package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gravel/internal/agg"
	"gravel/internal/rt"
)

// TestQuiesceFlushesEachQueueOnce: a step whose messages all go to one
// remote node and fit one per-node queue must leave as exactly one
// timeout-flushed packet, every rep, at the same modeled time. Quiesce
// used to flush as soon as the producer/consumer queue read empty,
// which is already true while an aggregator thread holds a claimed slot
// it has not repacked yet; the flush then sent the partial queue and the
// next round a second one (one extra per-packet charge).
func TestQuiesceFlushesEachQueueOnce(t *testing.T) {
	const (
		reps = 400
		size = 1 << 10
		half = size / 2
	)
	cl := New(Config{Nodes: 2})
	defer cl.Close()
	arr := cl.Space().Alloc(size) // node 1 owns [half, size)
	seed := uint64(13)
	var wantNs float64
	for rep := 0; rep < reps; rep++ {
		before := cl.nodes[0].Clocks.Snapshot().FlushesTimeout
		cl.Step("one-dest", []int{512, 0}, 0, func(c rt.Ctx) {
			g := c.Group()
			idx := make([]uint64, g.Size)
			one := make([]uint64, g.Size)
			g.Vector(func(l int) {
				x := (seed + uint64(g.GlobalID(l))) * 0x9e3779b97f4a7c15
				idx[l] = half + (x>>40)%half
				one[l] = 1
			})
			c.Inc(arr, idx, one, nil)
		})
		after := cl.nodes[0].Clocks.Snapshot().FlushesTimeout
		if after-before != 1 {
			t.Fatalf("rep %d: %d timeout flushes, want 1 (a per-node queue was split)", rep, after-before)
		}
		ns := cl.Stats().Steps[rep].VirtualNs
		if rep == 0 {
			wantNs = ns
		} else if ns != wantNs {
			t.Fatalf("rep %d: modeled %v ns, rep 0 took %v", rep, ns, wantNs)
		}
	}
	if got := arr.Sum(); got != reps*512 {
		t.Fatalf("sum = %d, want %d", got, reps*512)
	}
}

// tearingAgg forces the interleaving a quiet observation can be torn
// by: its Pending, which Quiesce reads for the last node after every
// other, first runs tear.
type tearingAgg struct {
	agg.Strategy
	tear func()
}

func (a tearingAgg) Pending() bool {
	a.tear()
	return a.Strategy.Pending()
}

// TestQuiesceWaitsOutCascadeStagedMidObservation: while Quiesce checks
// whether every node has sent everything, node 1 sends an AM to node 0
// whose handler stages a follow-up on node 0, already checked; the
// packet is applied and the fabric is quiet again before Quiesce asks
// it. Two such observations in a row used to end the step with the
// last follow-up still staged.
func TestQuiesceWaitsOutCascadeStagedMidObservation(t *testing.T) {
	cl := New(Config{Nodes: 2})
	defer cl.Close()
	var followed atomic.Int64
	follow := cl.RegisterAM(func(int, uint64, uint64) { followed.Add(1) })
	lead := cl.RegisterAM(func(node int, _, _ uint64) { cl.HostAM(node, follow, 1-node, 0, 0) })
	const tears = 3
	torn := 0
	last := cl.nodes[1]
	last.Agg = tearingAgg{last.Agg, func() {
		if torn == tears {
			return
		}
		torn++
		cl.HostAM(1, lead, 0, 0, 0)
		last.Agg.Flush()
		cl.fab.Progress().Wait(cl.fab.Quiet)
	}}
	cl.Quiesce()
	if got := followed.Load(); torn != tears || got != tears {
		t.Fatalf("Quiesce returned after %d of %d torn observations with %d follow-ups applied", torn, tears, got)
	}
}

// TestQuiesceSeesPacketDepartMidObservation: while Quiesce reads what
// node 1 has staged, node 1's aggregator pump moves an active message
// onto the fabric, so the staged read sees nothing on any node; node 0
// cannot apply the message until Quiesce has parked. Staged is read
// before departed, so the departed read counts the message and Quiesce
// waits it out. Read the other way round, the observation misses it:
// nothing staged, nothing consumed between the two consumed reads, and
// departed equal to consumed.
func TestQuiesceSeesPacketDepartMidObservation(t *testing.T) {
	cl := New(Config{Nodes: 2})
	defer cl.Close()
	var applied atomic.Int64
	h := cl.RegisterAM(func(int, uint64, uint64) { applied.Add(1) })
	bank := &cl.bankMu[0][0] // the AM's resolver bank on node 0
	var unblock sync.Once
	release := func() { unblock.Do(bank.Unlock) }
	stop := make(chan struct{})
	defer close(stop)
	moved := false
	last := cl.nodes[1]
	last.Agg = tearingAgg{last.Agg, func() {
		if moved {
			return
		}
		moved = true
		bank.Lock()
		cl.HostAM(1, h, 0, 0, 0)
		last.Agg.Flush()
		go func() {
			for cl.fab.Progress().Parked() == 0 {
				select {
				case <-stop:
					return
				default:
					runtime.Gosched()
				}
			}
			release()
		}()
	}}
	cl.Quiesce()
	got := applied.Load()
	release()
	if !moved || got != 1 {
		t.Fatalf("Quiesce returned with %d of 1 departed message applied (moved %v)", got, moved)
	}
}

// TestQuiesceRetiresDroppedFrame: a frame the loopback decoder drops as
// malformed is never applied and never Done, yet its sender counted its
// records departed; the decoder retires them, or the ledger would never
// balance and Quiesce would wait forever.
func TestQuiesceRetiresDroppedFrame(t *testing.T) {
	cl := New(Config{Nodes: 2, Transport: "loopback"})
	defer cl.Close()
	cl.Fabric().Send(0, 1, []byte{1, 2, 3}, 1) // not a whole record
	done := make(chan struct{})
	go func() {
		defer close(done)
		cl.Quiesce()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Quiesce still waiting for a dropped frame after 10s")
	}
	st := cl.Stats()
	if st.Transport.Malformed != 1 || st.Resolver.Packets != 0 || st.Resolver.BypassPackets != 0 {
		t.Fatalf("malformed %d, applied %d packets + %d bypassed; want 1, 0, 0",
			st.Transport.Malformed, st.Resolver.Packets, st.Resolver.BypassPackets)
	}
}

// gateFabric holds the next Send it is armed for before the fabric
// sees it: entered closes when that Send arrives, and it proceeds once
// release is closed.
type gateFabric struct {
	Fabric
	armed            atomic.Bool
	entered, release chan struct{}
}

func (f *gateFabric) Send(from, to int, buf []byte, msgs int) {
	if f.armed.CompareAndSwap(true, false) {
		close(f.entered)
		<-f.release
	}
	f.Fabric.Send(from, to, buf, msgs)
}

// TestQuiesceSeesPacketInPump: while Quiesce reads node 1, after it has
// read node 1's aggregator not Busy, a pump takes an active message out
// of node 1's outbox and stops short of the fabric, so staging and the
// outbox read empty and the fabric has not counted it departed. The
// pump's hold is what still shows it; Quiesce must read Busy again
// after the outbox and wait the message out.
func TestQuiesceSeesPacketInPump(t *testing.T) {
	cl := New(Config{Nodes: 2})
	defer cl.Close()
	var applied atomic.Int64
	h := cl.RegisterAM(func(int, uint64, uint64) { applied.Add(1) })
	gate := &gateFabric{Fabric: cl.fab, entered: make(chan struct{}), release: make(chan struct{})}
	last := cl.nodes[1]
	last.Agg.Stop()
	gated := agg.New(1, cl.params, last.PCQ, gate, last.Clocks, false)
	gated.Start()
	var unblock sync.Once
	release := func() { unblock.Do(func() { close(gate.release) }) }
	stop, flushed := make(chan struct{}), make(chan struct{})
	moved := false
	defer func() {
		close(stop)
		release()
		if moved {
			<-flushed // before Close: the held Send still has to land
		}
	}()
	last.Agg = tearingAgg{gated, func() {
		if moved {
			return
		}
		moved = true
		cl.HostAM(1, h, 0, 0, 0)
		gate.armed.Store(true)
		go func() {
			defer close(flushed)
			gated.Flush()
		}()
		<-gate.entered
		go func() {
			for cl.fab.Progress().Parked() == 0 {
				select {
				case <-stop:
					return
				default:
					runtime.Gosched()
				}
			}
			release()
		}()
	}}
	cl.Quiesce()
	if got := applied.Load(); !moved || got != 1 {
		t.Fatalf("Quiesce returned with %d of 1 pumped message applied (moved %v)", got, moved)
	}
}
