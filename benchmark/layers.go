package main

import (
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gravel/internal/agg"
	"gravel/internal/core"
	"gravel/internal/fabric"
	"gravel/internal/pgas"
	"gravel/internal/queue"
	"gravel/internal/rt"
	"gravel/internal/simt"
	"gravel/internal/timemodel"
	"gravel/internal/transport"
	"gravel/internal/wire"
)

// Per-layer microbenchmarks, measured from outside: each times calls
// into one internal package's exported functions, replaying node 0's
// share of one gups-bulk step (65 536 seeded indices) unless it says
// otherwise. Every number is a median of microRuns runs.

const microRuns = 11

// layers holds the replayed streams and collects the metrics.
type layers struct {
	p    *timemodel.Params
	idx  []uint32 // node 0, step 0 of the gups-bulk stream: uniform over the table
	zidx []uint32 // same shape, zipf(s=1)
	rem  []uint32 // the entries of idx that node 1 owns
	out  []metric
	err  error // first environment failure or wrong output
}

func (lb *layers) fail(err error) {
	if lb.err == nil {
		lb.err = err
	}
}

func (lb *layers) add(name, unit string, v float64) {
	lb.out = append(lb.out, single(name, unit, "host", v, microRuns))
}

func (lb *layers) count(name string, v float64) {
	lb.out = append(lb.out, single(name, "count", "count", v, microRuns))
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func owner(i uint32) int { return int(i) / (tableSize / nodes) }

// measureLayers runs every workload-independent microbenchmark.
func measureLayers(seed uint64) ([]metric, error) {
	one := shape{wgs: 64, rounds: bulkRounds, stepsPerRep: 1, distinct: 1}
	uni := genStream(seed, "gups-bulk", one, distUniform)
	zip := genStream(seed, "zipf-inc", one, distZipf)
	n := uni.at(0, 1, 0, 0) // node 0's block
	lb := &layers{p: timemodel.Default(), idx: uni.idx[:n], zidx: zip.idx[:n]}
	for _, i := range lb.idx {
		if owner(i) == 1 {
			lb.rem = append(lb.rem, i)
		}
	}
	lb.simt()
	lb.queue()
	lb.agg()
	lb.wire()
	lb.fabric()
	lb.transport()
	lb.core()
	lb.pgas()
	return lb.out, lb.err
}

func (lb *layers) simt() {
	dev := simt.NewDevice(simt.GPUArch(lb.p))
	const grid = 16384
	load := func(g *simt.Group) {
		sc := scratchPool.Get().(*scratch)
		src := lb.idx[g.Global0 : g.Global0+g.Size]
		g.Vector(func(l int) { sc.a[l] = uint64(src[l]) })
		scratchPool.Put(sc)
	}
	lb.add("simt.launch_ns_per_wi", "ns", medianOf(microRuns, func() float64 {
		const launches = 32
		t0 := time.Now()
		for i := 0; i < launches; i++ {
			dev.Launch(grid, wgSize, 0, load)
		}
		return float64(time.Since(t0).Nanoseconds()) / (launches * grid)
	}))
	lb.add("simt.launch_fixed_us", "us", medianOf(microRuns, func() float64 {
		const launches = 2000
		t0 := time.Now()
		for i := 0; i < launches; i++ {
			dev.Launch(wgSize, wgSize, 0, func(*simt.Group) {})
		}
		return float64(time.Since(t0).Nanoseconds()) / launches / 1e3
	}))

	// WFAggregate on the zipf stream, timed inside a serial launch so
	// the kernel's own index loads stay out of the number.
	serial := simt.NewDevice(simt.GPUArch(lb.p))
	serial.Parallelism = 1
	var ns int64
	sink := 0
	wfagg := func(g *simt.Group) {
		sc := scratchPool.Get().(*scratch)
		for round := 0; round < len(bulkRounds); round++ {
			src := lb.zidx[(g.ID*len(bulkRounds)+round)*wgSize:]
			g.Vector(func(l int) { sc.a[l] = uint64(src[l]) })
			t0 := time.Now()
			g.WFAggregate(allOn[:g.Size], func(l int) int { return owner(uint32(sc.a[l])) },
				func(dest int, lanes []int) { sink += len(lanes) })
			ns += time.Since(t0).Nanoseconds()
		}
		scratchPool.Put(sc)
	}
	lb.add("simt.wfagg_ns_per_msg", "ns", medianOf(microRuns, func() float64 {
		ns, sink = 0, 0
		serial.Launch(len(lb.zidx)/len(bulkRounds), wgSize, 0, wfagg)
		return float64(ns) / float64(sink)
	}))
}

var allOn = func() []bool {
	on := make([]bool, wgSize)
	for i := range on {
		on[i] = true
	}
	return on
}()

// fillSlot deposits one work-group's messages the way core's verb
// front-end does: command, destination and two argument rows.
func fillSlot(s queue.Slot, cmd uint64, idx []uint32) {
	rc, rd, ra, rb := s.Row(wire.RowCmd), s.Row(wire.RowDest), s.Row(wire.RowA), s.Row(wire.RowB)
	for m, i := range idx {
		rc[m], rd[m], ra[m], rb[m] = cmd, uint64(owner(i)), uint64(i), 1
	}
}

func (lb *layers) newQueue() *queue.Gravel {
	return queue.NewGravel(lb.p.PCQBytes/(wire.SlotRows*wgSize*8), wire.SlotRows, wgSize)
}

func (lb *layers) queue() {
	q := lb.newQueue()
	cmd := wire.PackCmd(wire.OpInc, 0, 0)
	var sink uint64
	consume := func(payload []uint64, rows, cols, count int) { sink += payload[0] }
	slots := len(lb.idx) / wgSize
	m0 := mallocs()
	lb.add("queue.roundtrip_ns_per_msg", "ns", medianOf(microRuns, func() float64 {
		t0 := time.Now()
		for s := 0; s < slots; s++ {
			slot := q.Reserve(wgSize)
			fillSlot(slot, cmd, lb.idx[s*wgSize:(s+1)*wgSize])
			slot.Commit()
			q.TryConsume(consume)
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(len(lb.idx))
	}))
	lb.count("queue.allocs_per_slot", float64(mallocs()-m0)/float64(microRuns*slots))
}

// sunkChan is a chan fabric whose inboxes sink goroutines drain,
// Done-ing every packet.
func sunkChan(p *timemodel.Params, clocks []*timemodel.Clocks) (fab *fabric.Chan, stop func()) {
	fab = fabric.New(p, clocks)
	var wg sync.WaitGroup
	for n := range clocks {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for pkt := range fab.Inbox(n) {
				fab.Done(pkt)
			}
		}(n)
	}
	return fab, func() { fab.Close(); wg.Wait() }
}

func waitFor(cond func() bool) {
	for !cond() {
		runtime.Gosched()
	}
}

func (lb *layers) agg() {
	clocks := []*timemodel.Clocks{{}, {}}
	fab, stop := sunkChan(lb.p, clocks)
	defer stop()
	cmd := wire.PackCmd(wire.OpInc, 0, 0)
	slots := len(lb.idx) / wgSize

	// Ticket strategy, background drain: the producer side of a step
	// against the running aggregator thread.
	q := lb.newQueue()
	tk := agg.New(0, lb.p, q, fab, clocks[0], false)
	tk.Start()
	lb.add("agg.ticket_drain_ns_per_msg", "ns", medianOf(microRuns, func() float64 {
		t0 := time.Now()
		for s := 0; s < slots; s++ {
			slot := q.Reserve(wgSize)
			fillSlot(slot, cmd, lb.idx[s*wgSize:(s+1)*wgSize])
			slot.Commit()
		}
		waitFor(func() bool { return q.Empty() && !tk.Busy() })
		tk.Flush()
		waitFor(fab.Quiet)
		return float64(time.Since(t0).Nanoseconds()) / float64(len(lb.idx))
	}))
	tk.Stop()

	// Ticket strategy, host staging: one per-node queue's worth of
	// AppendDirect, then Flush.
	direct := agg.New(0, lb.p, lb.newQueue(), fab, clocks[0], false)
	perPkt := lb.p.PerNodeQueueBytes / wire.MsgWireBytes
	const pkts = 16
	m0 := mallocs()
	lb.add("agg.ticket_append_flush_ns_per_msg", "ns", medianOf(microRuns, func() float64 {
		t0 := time.Now()
		for k := 0; k < pkts; k++ {
			for m := 0; m < perPkt; m++ {
				direct.AppendDirect(1, cmd, uint64(lb.rem[m]), 1, 0)
			}
			direct.Flush()
		}
		waitFor(fab.Quiet)
		return float64(time.Since(t0).Nanoseconds()) / float64(pkts*perPkt)
	}))
	lb.count("agg.allocs_per_pkt", float64(mallocs()-m0)/float64(microRuns*pkts))

	// Archive strategy: wavefront-granularity appends. The per-WF lane
	// lists are what simt.WFAggregate hands over; they are built here,
	// outside the timed region.
	ar := agg.NewArchive(0, lb.p, lb.newQueue(), fab, clocks[0], true)
	idx64 := make([]uint64, len(lb.zidx))
	for i, v := range lb.zidx {
		idx64[i] = uint64(v)
	}
	const wf = 64
	lanes := make([][nodes][]int, len(idx64)/wf)
	for w := range lanes {
		for l := 0; l < wf; l++ {
			lane := (w*wf + l) % wgSize
			d := owner(lb.zidx[w*wf+l])
			lanes[w][d] = append(lanes[w][d], lane)
		}
	}
	cmdOf := func(int) uint64 { return cmd }
	lb.add("agg.archive_append_ns_per_msg", "ns", medianOf(microRuns, func() float64 {
		t0 := time.Now()
		for w := range lanes {
			wg := idx64[w*wf/wgSize*wgSize:][:wgSize]
			for d := range lanes[w] {
				if len(lanes[w][d]) > 0 {
					ar.AppendWF(d, lanes[w][d], cmdOf, wg, ones)
				}
			}
		}
		ar.Flush()
		waitFor(fab.Quiet)
		return float64(time.Since(t0).Nanoseconds()) / float64(len(idx64))
	}))
}

// packet builds a full per-node queue of cmd records over indices node
// 1 owns.
func (lb *layers) packet(cmd uint64) (buf []byte, msgs int) {
	b := wire.NewBuilder(1, lb.p.PerNodeQueueBytes)
	for i := 0; !b.Full(); i++ {
		b.Append(cmd, uint64(lb.rem[i]), 1)
	}
	return b.Take()
}

// fresh returns a pooled buffer holding a copy of tmpl; Send and Done
// consume buffers, so every timed send needs its own.
func fresh(tmpl []byte) []byte { return append(wire.GetBuf(len(tmpl)), tmpl...) }

func (lb *layers) wire() {
	cmd := wire.PackCmd(wire.OpInc, 0, 0)
	b := wire.NewBuilder(1, lb.p.PerNodeQueueBytes)
	const pkts = 16
	var perPkt int
	m0 := mallocs()
	lb.add("wire.append_ns_per_msg", "ns", medianOf(microRuns, func() float64 {
		t0 := time.Now()
		n := 0
		for k := 0; k < pkts; k++ {
			for i := 0; !b.Full(); i++ {
				b.Append(cmd, uint64(lb.rem[i]), 1)
			}
			buf, msgs := b.Take()
			n += msgs
			perPkt = msgs
			wire.PutBuf(buf)
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(n)
	}))
	lb.count("wire.allocs_per_pkt", float64(mallocs()-m0)/float64(microRuns*pkts))

	tmpl, _ := lb.packet(cmd)
	var sink uint64
	lb.add("wire.decode_ns_per_msg", "ns", medianOf(microRuns, func() float64 {
		t0 := time.Now()
		for k := 0; k < pkts; k++ {
			if err := wire.Decode(tmpl, func(cmd, a, v uint64) { sink += a }); err != nil {
				lb.fail(err)
			}
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(pkts*perPkt)
	}))
	lb.add("wire.pool_cycle_ns", "ns", medianOf(microRuns, func() float64 {
		const cycles = 4096
		t0 := time.Now()
		for k := 0; k < cycles; k++ {
			wire.PutBuf(wire.GetBuf(lb.p.PerNodeQueueBytes))
		}
		return float64(time.Since(t0).Nanoseconds()) / cycles
	}))
}

// pktLoop times send(buf) for pkts fresh copies of tmpl, keeping the
// copy itself out of the timed region, and returns ns per packet.
func pktLoop(tmpl []byte, pkts int, send func(buf []byte)) float64 {
	var ns int64
	for k := 0; k < pkts; k++ {
		buf := fresh(tmpl)
		t0 := time.Now()
		send(buf)
		ns += time.Since(t0).Nanoseconds()
	}
	return float64(ns) / float64(pkts)
}

func (lb *layers) fabric() {
	cmd := wire.PackCmd(wire.OpInc, 0, 0)
	tmpl, msgs := lb.packet(cmd)
	clocks := []*timemodel.Clocks{{}, {}}
	const pkts = 64

	flat := fabric.NewBanked(lb.p, clocks, 1)
	lb.add("fabric.chan_pkt_ns", "ns", medianOf(microRuns, func() float64 {
		return pktLoop(tmpl, pkts, func(buf []byte) {
			flat.Send(0, 1, buf, msgs)
			flat.Done(<-flat.Inbox(1))
		})
	}))
	flat.Close()

	banked := fabric.NewBanked(lb.p, clocks, 2)
	lb.add("fabric.chan_banked_pkt_ns", "ns", medianOf(microRuns, func() float64 {
		return pktLoop(tmpl, pkts, func(buf []byte) {
			banked.Send(0, 1, buf, msgs) // scatters into one sub-packet per bank
			banked.Done(<-banked.BankInbox(1, 0))
			banked.Done(<-banked.BankInbox(1, 1))
		})
	}))
	banked.Close()

	lb.add("fabric.scatter_ns_per_msg", "ns", medianOf(microRuns, func() float64 {
		t0 := time.Now()
		for k := 0; k < pkts; k++ {
			fabric.ScatterBanks(tmpl, 2, func(bank int, sub []byte, n int) { wire.PutBuf(sub) })
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(pkts*msgs)
	}))
}

// tcpPair assembles two in-process TCP fabrics around a coordinator on
// 127.0.0.1: host loopback, not a real link.
func tcpPair(p *timemodel.Params) (fabs [nodes]*transport.TCP, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fabs, nil, err
	}
	go transport.NewCoordinator(nodes).Serve(ln)
	var errs [nodes]error
	var wg sync.WaitGroup
	for i := range fabs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fabs[i], errs[i] = transport.NewTCP(p, []*timemodel.Clocks{{}, {}}, fabric.Options{Self: i, Coord: ln.Addr().String()})
		}(i)
	}
	wg.Wait()
	stop = func() {
		var wg sync.WaitGroup
		for _, f := range fabs {
			if f != nil {
				wg.Add(1)
				go func(f *transport.TCP) { defer wg.Done(); f.Close() }(f)
			}
		}
		wg.Wait()
		ln.Close()
	}
	for _, e := range errs {
		if e != nil {
			stop()
			return fabs, nil, e
		}
	}
	return fabs, stop, nil
}

func (lb *layers) transport() {
	cmd := wire.PackCmd(wire.OpInc, 0, 0)
	tmpl, msgs := lb.packet(cmd)
	clocks := []*timemodel.Clocks{{}, {}}
	const pkts = 64

	loop := transport.NewLoopbackBanked(lb.p, clocks, 1)
	lb.add("transport.loopback_pkt_ns", "ns", medianOf(microRuns, func() float64 {
		return pktLoop(tmpl, pkts, func(buf []byte) {
			loop.Send(0, 1, buf, msgs)
			loop.Done(<-loop.Inbox(1))
		})
	}))
	loop.Close()

	fabs, stop, err := tcpPair(lb.p)
	if err != nil {
		lb.fail(err)
		return
	}
	var got atomic.Int64
	var recv sync.WaitGroup
	recv.Add(1)
	go func() { // ends when stop closes the inbox
		defer recv.Done()
		for pkt := range fabs[1].Inbox(1) {
			fabs[1].Done(pkt)
			got.Add(1)
		}
	}()
	quiet := func() bool { // no short-circuit: both sides must keep reporting to the coordinator
		q0, q1 := fabs[0].Quiet(), fabs[1].Quiet()
		return q0 && q1
	}
	lb.add("transport.tcp_pkt_ns", "ns", medianOf(microRuns, func() float64 {
		bufs := make([][]byte, pkts)
		for k := range bufs {
			bufs[k] = fresh(tmpl)
		}
		want := got.Load() + pkts
		t0 := time.Now()
		for _, buf := range bufs {
			fabs[0].Send(0, 1, buf, msgs)
		}
		waitFor(func() bool { return got.Load() >= want })
		return float64(time.Since(t0).Nanoseconds()) / pkts
	}))
	waitFor(quiet)
	small := wire.AppendRecord(nil, cmd, uint64(lb.rem[0]), 1)
	lb.add("transport.tcp_small_rtt_us", "us", medianOf(microRuns, func() float64 {
		const trips = 8
		t0 := time.Now()
		for k := 0; k < trips; k++ {
			fabs[0].Send(0, 1, append([]byte(nil), small...), 1)
			waitFor(quiet)
		}
		return float64(time.Since(t0).Nanoseconds()) / trips / 1e3
	}))
	stop()
	recv.Wait()
}

// packets builds n full per-node queues of cmd records that walk the
// node-1-owned part of the stream in order, wrapping around.
func (lb *layers) packets(cmd uint64, n int) (tmpls [][]byte, msgs int) {
	b := wire.NewBuilder(1, lb.p.PerNodeQueueBytes)
	for i, k := 0, 0; k < n; k++ {
		for ; !b.Full(); i++ {
			b.Append(cmd, uint64(lb.rem[i%len(lb.rem)]), 1)
		}
		var buf []byte
		buf, msgs = b.Take()
		tmpls = append(tmpls, buf)
	}
	return tmpls, msgs
}

func (lb *layers) core() {
	const pkts = 24 // one gups-bulk step's worth toward one destination
	inject := func(cl *core.Cluster, from int, tmpls [][]byte, msgs int) float64 {
		bufs := make([][]byte, len(tmpls))
		for k, tmpl := range tmpls {
			bufs[k] = fresh(tmpl)
		}
		t0 := time.Now()
		for _, buf := range bufs {
			cl.Fabric().Send(from, 1, buf, msgs)
		}
		cl.Quiesce()
		return float64(time.Since(t0).Nanoseconds()) / float64(len(tmpls)*msgs)
	}
	for _, shards := range []int{1, 2} {
		cl := core.New(core.Config{Nodes: nodes, WGSize: wgSize, ResolverShards: shards})
		tab := cl.Space().Alloc(tableSize)
		var am atomic.Int64
		h := cl.RegisterAM(func(node int, a, b uint64) { am.Add(int64(b)) })
		inc, msgs := lb.packets(wire.PackCmd(wire.OpInc, 0, tab.ID()), pkts)
		name := "core.resolve_ns_per_msg.s1"
		if shards == 2 {
			name = "core.resolve_ns_per_msg.s2"
		}
		// The receive side alone: pre-built packets into node 1's inbox,
		// timed to quiescence.
		lb.add(name, "ns", medianOf(microRuns, func() float64 { return inject(cl, 0, inc, msgs) }))
		if shards == 1 {
			amPkts, amMsgs := lb.packets(wire.PackCmd(wire.OpAM, h, 0), pkts)
			lb.add("core.resolve_am_ns_per_msg", "ns", medianOf(microRuns, func() float64 { return inject(cl, 0, amPkts, amMsgs) }))
			// from == to: applied synchronously on the sending goroutine.
			lb.add("core.bypass_ns_per_msg", "ns", medianOf(microRuns, func() float64 { return inject(cl, 1, inc, msgs) }))
			grid := make([]int, nodes)
			lb.add("core.empty_step_us", "us", medianOf(microRuns, func() float64 {
				const steps = 500
				t0 := time.Now()
				for s := 0; s < steps; s++ {
					cl.Step("empty", grid, 0, func(rt.Ctx) {})
				}
				return float64(time.Since(t0).Nanoseconds()) / steps / 1e3
			}))
			if want := int64(microRuns * pkts * amMsgs); am.Load() != want {
				lb.fail(fmt.Errorf("core microbenchmark: AM handlers summed %d, want %d", am.Load(), want))
			}
		}
		want := uint64(microRuns * pkts * msgs)
		if shards == 1 {
			want *= 2 // resolver and bypass runs
		}
		if got := tab.Sum(); got != want {
			lb.fail(fmt.Errorf("core microbenchmark: %d of %d injected increments applied", got, want))
		}
		cl.Close()
	}
}

func (lb *layers) pgas() {
	sp := pgas.NewSpace(nodes)
	t18 := sp.Alloc(tableSize)
	t23 := sp.Alloc(1 << 23)
	r := rng(uint64(len(lb.idx)) ^ uint64(lb.idx[0])<<20)
	wide := make([]uint64, len(lb.idx))
	for i := range wide {
		wide[i] = r.next() >> (64 - 23)
	}
	sink := 0
	lb.add("pgas.owner_ns", "ns", medianOf(microRuns, func() float64 {
		t0 := time.Now()
		for _, i := range lb.idx {
			sink += t18.Owner(uint64(i))
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(len(lb.idx))
	}))
	// The same Add at two working sets: 2 MiB (cache-resident, what the
	// workloads use) and 64 MiB. The gap is memory, not code.
	lb.add("pgas.add_ns.t18", "ns", medianOf(microRuns, func() float64 {
		t0 := time.Now()
		for _, i := range lb.idx {
			t18.Add(uint64(i), 1)
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(len(lb.idx))
	}))
	lb.add("pgas.add_ns.t23", "ns", medianOf(microRuns, func() float64 {
		t0 := time.Now()
		for _, i := range wide {
			t23.Add(i, 1)
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(len(wide))
	}))
	if got, want := t18.Sum(), uint64(microRuns*len(lb.idx)); sink < 0 || got != want {
		lb.fail(fmt.Errorf("pgas microbenchmark: table sums to %d after %d Adds", got, want))
	}
}
