package bench

import (
	"gravel/internal/core"
	"gravel/internal/rt"
	"gravel/internal/timemodel"
)

// PGAS sweeps the symmetric-heap verbs. The first half compares the
// two ways to hand a block of data to a remote consumer: a signalled
// put (one PUT_SIGNAL wire record per element, resolver-ordered, eager
// flush) against the pre-verb idiom of a data put followed by a
// separate flag increment (two records per element). The second half
// measures the in-kernel all-reduce built from those verbs
// (rt.DeviceColl) as the team grows.
func PGAS(scale float64, params *timemodel.Params) *Table {
	t := &Table{
		Title:  "PGAS verbs: signalled put vs put+flag, device all-reduce latency",
		Header: []string{"config", "model ms", "wire pkts", "wire KB", "ns/elem"},
	}

	bulk := int(16384 * scale)
	if bulk < 256 {
		bulk = 256
	}

	// transfer runs `steps` producer/consumer rounds of `elems` elements
	// from node 0 into node 1's symmetric bank and reports the consumer-
	// release latency (virtual) plus the wire cost.
	//
	// The signalled variant completes inside one step: PUT_SIGNAL
	// transmits eagerly, so the consumer's in-kernel WaitUntil is
	// released by the real arrivals. The put+flag variant CANNOT wait in
	// the producing step — flag increments may sit in a partially-filled
	// aggregation queue until the end-of-step flush, so an in-kernel
	// waiter would deadlock the launch. It therefore pays a step boundary
	// (quiescence + relaunch) before the consumer may proceed, which is
	// exactly the host round trip the verb pair removes.
	transfer := func(label string, signalled bool, elems, steps int) {
		sys := core.New(core.Config{Nodes: 2, Params: cloneParams(params)})
		defer sys.Close()
		sp := sys.Space()
		data := sp.SymAlloc(elems)
		flag := sp.SymAlloc(1)

		produce := func(c rt.Ctx) {
			g := c.Group()
			idx := make([]uint64, g.Size)
			val := make([]uint64, g.Size)
			si := make([]uint64, g.Size)
			one := make([]uint64, g.Size)
			g.Vector(func(l int) {
				idx[l] = data.SymIndex(1, g.GlobalID(l))
				val[l] = uint64(g.GlobalID(l)) + 1
				si[l] = flag.SymIndex(1, 0)
				one[l] = 1
			})
			if signalled {
				c.PutSignal(data, idx, val, flag, si, nil)
				return
			}
			c.Put(data, idx, val, nil)
			c.Inc(flag, si, one, nil)
		}
		consume := func(c rt.Ctx, want uint64) {
			g := c.Group()
			mask := make([]bool, g.Size)
			si := make([]uint64, g.Size)
			until := make([]uint64, g.Size)
			mask[0] = true
			si[0] = flag.SymIndex(1, 0)
			until[0] = want
			c.WaitUntil(flag, si, until, mask)
		}

		t0 := sys.VirtualTimeNs()
		for s := 0; s < steps; s++ {
			want := uint64(s+1) * uint64(elems)
			if signalled {
				sys.Step(label, []int{elems, 1}, 0, func(c rt.Ctx) {
					if c.Node() == 0 {
						produce(c)
					} else {
						consume(c, want)
					}
				})
				continue
			}
			sys.Step(label, []int{elems, 0}, 0, func(c rt.Ctx) { produce(c) })
			sys.Step(label+"-wait", []int{0, 1}, 0, func(c rt.Ctx) { consume(c, want) })
		}
		ns := sys.VirtualTimeNs() - t0
		st := sys.Stats().Transport
		t.AddRow(label,
			F(ns/1e6),
			itoa(int(st.WirePackets)),
			F(float64(st.WireBytes)/1024),
			F(ns/float64(steps*elems)))
	}
	// Fine-grain: 64-element messages, one consumer release per message.
	// Bulk: four big blocks. The verbs win the first regime (no host
	// round trip per release); aggregation wins the second (the signalled
	// put pays one wire record per element).
	transfer("put_signal 64x64", true, 64, 64)
	transfer("put+flag 64x64", false, 64, 64)
	transfer("put_signal bulk", true, bulk, 4)
	transfer("put+flag bulk", false, bulk, 4)

	// Device all-reduce: one work-group per member, `rounds` back-to-back
	// sum rounds; ns/elem is the per-round latency here. Both schedules
	// sweep the same team sizes: the linear fan-out's O(n²) messages make
	// its per-round cost climb with the team, while recursive doubling's
	// log-depth exchange flattens the curve.
	const rounds = 8
	for _, sched := range []rt.DCSchedule{rt.DCLinear, rt.DCRecDouble} {
		for _, nodes := range []int{2, 4, 8} {
			sys := core.New(core.Config{Nodes: nodes, Params: cloneParams(params)})
			dc := rt.NewDeviceCollSched(sys.Space(), nodes, rt.WorldTeam, sched)
			out := sys.Space().SymAlloc(1)
			grid := make([]int, nodes)
			for i := range grid {
				grid[i] = 1
			}
			t0 := sys.VirtualTimeNs()
			sys.Step("allreduce", grid, 0, func(c rt.Ctx) {
				acc := uint64(0)
				for r := 0; r < rounds; r++ {
					acc += dc.AllReduce(c, rt.OpSum, uint64(c.Node())+1)
				}
				out.Store(out.SymIndex(c.Node(), 0), acc)
			})
			ns := sys.VirtualTimeNs() - t0
			st := sys.Stats().Transport
			want := uint64(rounds) * uint64(nodes) * uint64(nodes+1) / 2
			if out.Load(out.SymIndex(0, 0)) != want {
				panic("bench: device all-reduce folded wrong")
			}
			sys.Close()
			t.AddRow("allreduce "+sched.String()+" nodes="+itoa(nodes),
				F(ns/1e6),
				itoa(int(st.WirePackets)),
				F(float64(st.WireBytes)/1024),
				F(ns/rounds))
		}
	}

	t.Note("put_signal carries data+signal in one ordered wire record; put+flag pays two records per element")
	t.Note("allreduce rows: ns/elem column is ns per all-reduce round (one WG per member, rt.DeviceColl)")
	t.Note("linear all-reduce sends O(n^2) signalled puts per round; recursive doubling sends n*log2(n), flattening the latency curve")
	return t
}
