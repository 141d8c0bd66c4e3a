package main

import (
	"fmt"

	"gravel/internal/agg"
	"gravel/internal/core"
	"gravel/internal/fabric"
	"gravel/internal/queue"
	"gravel/internal/simt"
	"gravel/internal/timemodel"
	"gravel/internal/wire"
)

// The staged pipeline walks node 0's share of one gups-bulk step
// through the message path itself, strictly serially — one hop at a
// time, nothing overlapping — with one child span per hop:
//
//	simt+queue    kernel: index loads, PrefixSumMask, queue.Reserve,
//	              slot fill, Commit (the verb front-end, rebuilt from
//	              the exported pieces it is made of)
//	agg+wire      an un-started agg.Aggregator's Flush: TryConsume +
//	              repack into builders + wire take (Take happens inside
//	              Flush, so it cannot be split off from outside)
//	fabric.send   the aggregator's fabric.Send of a remote packet, seen
//	              by a wrapping Fabric that belongs to the benchmark
//	core.resolve  wire.Decode + apply: synchronously inside Send for a
//	              node-local packet (the bypass); for a remote one, the
//	              wait after Send until core's resolver has applied it
//	core.quiesce  Quiesce with nothing left in flight: what the
//	              two-observation quiescence protocol itself costs a step
//
// The queue is sized to hold the whole step, and every remote packet
// is waited out before the next is sent, so the hops never overlap and
// their self times add up to the serial cost of the path.

// stagedPasses is how many serial walks the per-hop medians are over.
const stagedPasses = 21

// hops lists the hop spans in path order with the metric each feeds.
var hops = []struct{ span, metric string }{
	{"simt+queue", "path.kernel_queue_ns_per_msg"},
	{"agg+wire", "path.agg_wire_ns_per_msg"},
	{"fabric.send", "path.fabric_send_ns_per_msg"},
	{"core.resolve", "path.resolve_ns_per_msg"},
	{"core.quiesce", "path.quiesce_ns_per_msg"},
}

// spanFabric wraps a Fabric and records spans around every Send.
type spanFabric struct {
	fabric.Fabric
	rec    *recorder
	parent int
	rep    int
}

func (f *spanFabric) Send(from, to int, buf []byte, msgs int) {
	if from == to { // bypass: decoded and applied before Send returns
		id := f.rec.begin("core.resolve", f.parent, f.rep)
		f.Fabric.Send(from, to, buf, msgs)
		f.rec.end(id)
		return
	}
	id := f.rec.begin("fabric.send", f.parent, f.rep)
	f.Fabric.Send(from, to, buf, msgs)
	f.rec.end(id)
	id = f.rec.begin("core.resolve", f.parent, f.rep)
	waitFor(f.Fabric.Quiet)
	f.rec.end(id)
}

// stagedPipeline runs passes serial walks and returns, per hop, the
// median self time in ns per message, plus their sum under "serial".
func stagedPipeline(rec *recorder, seed uint64, passes int) (map[string]float64, error) {
	p := timemodel.Default()
	st := genStream(seed, "gups-bulk", shape{wgs: 64, rounds: bulkRounds, stepsPerRep: 1, distinct: 1}, distUniform)
	msgs := st.sh.wgs * len(st.sh.rounds) * wgSize

	cl := core.New(core.Config{Nodes: nodes, WGSize: wgSize})
	defer cl.Close()
	tab := cl.Space().Alloc(tableSize)
	cmd := wire.PackCmd(wire.OpInc, 0, tab.ID())

	dev := simt.NewDevice(simt.GPUArch(p))
	dev.Parallelism = 1
	q := queue.NewGravel(st.sh.wgs*len(st.sh.rounds), wire.SlotRows, wgSize)
	sf := &spanFabric{Fabric: cl.Fabric(), rec: rec}
	ag := agg.New(0, p, q, sf, &timemodel.Clocks{}, false)

	kernel := func(g *simt.Group) {
		sc := scratchPool.Get().(*scratch)
		a := sc.a[:g.Size]
		on := allOn[:g.Size]
		for round := range st.sh.rounds {
			src := st.idx[st.at(0, 0, g.ID, round):]
			g.Vector(func(l int) { a[l] = uint64(src[l]) })
			offs, count := g.PrefixSumMask(on)
			g.ChargeAtomics(queue.ProducerAtomicsPerReserve)
			s := q.Reserve(count)
			rc, rd, ra, rb := s.Row(wire.RowCmd), s.Row(wire.RowDest), s.Row(wire.RowA), s.Row(wire.RowB)
			g.VectorMasked(wire.SlotRows, on, func(l int) {
				m := offs[l]
				rc[m], rd[m], ra[m], rb[m] = cmd, uint64(tab.Owner(a[l])), a[l], 1
			})
			s.Commit()
			g.ChargeMessages(count)
		}
		scratchPool.Put(sc)
	}

	was := rec.on
	rec.on = true
	defer func() { rec.on = was }()
	first := len(rec.spans)
	for pass := 0; pass < passes; pass++ {
		root := rec.begin("pipeline", -1, pass)
		sf.rep = pass

		id := rec.begin("simt+queue", root, pass)
		dev.Launch(st.sh.wgs*wgSize, wgSize, 0, kernel)
		rec.end(id)

		id = rec.begin("agg+wire", root, pass)
		sf.parent = id
		ag.Flush()
		rec.end(id)

		id = rec.begin("core.quiesce", root, pass)
		cl.Quiesce()
		rec.end(id)

		rec.end(root)
	}
	if got, want := tab.Sum(), uint64(passes*msgs); got != want {
		return nil, fmt.Errorf("staged pipeline applied %d increments, want %d", got, want)
	}

	perPass := make(map[string][]float64)
	byPass := make([][]span, passes)
	for _, s := range rec.spans[first:] {
		byPass[s.Rep] = append(byPass[s.Rep], s)
	}
	for _, spans := range byPass {
		self := selfTimes(spans)
		total := 0.0
		for name, ns := range self {
			v := float64(ns) / float64(msgs)
			perPass[name] = append(perPass[name], v)
			total += v
		}
		perPass["serial"] = append(perPass["serial"], total)
	}
	out := make(map[string]float64)
	for name, xs := range perPass {
		out[name] = median(xs)
	}
	return out, nil
}
