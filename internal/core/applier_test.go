package core

import (
	"errors"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gravel/internal/fabric"
	"gravel/internal/obs"
	"gravel/internal/pgas"
	"gravel/internal/rt"
	"gravel/internal/timemodel"
	"gravel/internal/wire"
)

// mixedRecords allocates one array of every kind on sp (plus a signal
// array) and returns them with a packet's worth of records for node 1 of
// 4: every op, two arrays interleaved so the applier's command cache
// flips on every record, both ends of node 1's window, and one index
// outside it (a cell node 2 owns, which the receiver must still apply
// through the array's owner-resolving accessors).
func mixedRecords(sp *pgas.Space, h uint8) (arrays []*pgas.Array, recs [][3]uint64) {
	blk := sp.Alloc(64)                            // node 1 owns [16,32)
	sym := sp.SymAlloc(8)                          // node 1 owns [8,16)
	rng := sp.AllocRanges([]int{0, 3, 10, 10, 20}) // node 1 owns [3,10), node 2 nothing
	sig := sp.SymAlloc(4)                          // node 1 owns [4,8)
	inc := func(a *pgas.Array) uint64 { return wire.PackCmd(wire.OpInc, 0, a.ID()) }
	put := func(a *pgas.Array) uint64 { return wire.PackCmd(wire.OpPut, 0, a.ID()) }
	am := wire.PackCmd(wire.OpAM, h, 0)
	recs = [][3]uint64{
		{inc(blk), 17, 5}, {put(sym), 9, 7}, {inc(blk), 18, 1}, {inc(rng), 4, 2},
		{inc(blk), 17, 3}, {put(rng), 9, 11}, {am, 3, 4},
		{wire.PackSigCmd(sym.ID(), sig.ID(), 6), 10, 99},
		{inc(blk), 40, 9}, // outside node 1's window
		{am, 5, 6},
		{wire.PackSigCmd(blk.ID(), sig.ID(), 5), 20, 42},
		{inc(blk), 31, 1}, {inc(blk), 16, 1}, {put(blk), 19, 8}, {inc(sym), 15, 2},
	}
	return []*pgas.Array{blk, sym, rng, sig}, recs
}

// tally is the reference's count of one packet's work on one bank.
type tally struct{ msgs, ams, sigs int }

// TestApplierMatchesReference pushes the mixed packet through every
// receive path and checks array contents, AM handler effects, the path's
// bankCounters and node 1's net clock against a reference built the old
// way: wire.Decode, one op switch, Array.Add/Store, and the per-bank
// charge formula applied to record counts.
func TestApplierMatchesReference(t *testing.T) {
	const nodes, target = 4, 1
	amOf := func(a, v uint64) uint64 { return a*31 + v }
	cases := []struct {
		name   string
		shards int
		from   int
		routed bool
	}{
		{"resolver/shards=1", 1, 0, false},
		{"resolver/shards=4", 4, 0, false},
		{"bypass/shards=1", 1, target, false},
		{"bypass/shards=4", 4, target, false},
		{"gateway/shards=1", 1, 0, true},
		{"gateway/shards=4", 4, 0, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cl := New(Config{Nodes: nodes, ResolverShards: tc.shards})
			defer cl.Close()
			var amGot [nodes]atomic.Uint64
			h := cl.RegisterAM(func(node int, a, v uint64) { amGot[node].Add(amOf(a, v)) })
			arrays, recs := mixedRecords(cl.Space(), h)

			// Reference state, and the work each bank of node 1 should see.
			refSp := pgas.NewSpace(nodes)
			refArrays, _ := mixedRecords(refSp, h)
			var amWant [nodes]uint64
			direct := wire.GetBuf(len(recs) * wire.MsgWireBytes)
			for _, r := range recs {
				direct = wire.AppendRecord(direct, r[0], r[1], r[2])
			}
			var want [fabric.MaxResolverBanks]tally
			if err := wire.Decode(direct, func(cmd, a, v uint64) {
				w := &want[fabric.BankOfRecord(cmd, a, tc.shards)]
				w.msgs++
				op, _, arr := wire.UnpackCmd(cmd)
				switch op {
				case wire.OpPut:
					refSp.Array(arr).Store(a, v)
				case wire.OpInc:
					refSp.Array(arr).Add(a, v)
				case wire.OpAM:
					amWant[target] += amOf(a, v)
					w.ams++
				case wire.OpPutSignal:
					d, s, i := wire.UnpackSigCmd(cmd)
					refSp.Array(d).Store(a, v)
					refSp.Array(s).Add(uint64(i), 1)
					w.sigs++
				}
			}); err != nil {
				t.Fatal(err)
			}
			var all tally
			for _, w := range want {
				all.msgs += w.msgs
				all.ams += w.ams
				all.sigs += w.sigs
			}
			refClock := &timemodel.Clocks{}
			refClock.ConfigureNetBanks(tc.shards)

			if tc.routed {
				// One extra record is relayed to node 2: it must reach node
				// 2's memory but count as none of node 1's applied work.
				relay := [3]uint64{wire.PackCmd(wire.OpInc, 0, arrays[0].ID()), 33, 4}
				refArrays[0].Add(relay[1], relay[2])
				b := wire.NewRoutedBuilder(target, (len(recs)+1)*wire.RoutedMsgBytes)
				for i, r := range recs {
					if i == 3 {
						b.AppendRouted(relay[0], relay[1], relay[2], 2)
					}
					b.AppendRouted(r[0], r[1], r[2], target)
				}
				buf, msgs := b.Take()
				refClock.AddNetBank(0, cl.netCharge(msgs, len(buf), all.ams, all.sigs))
				cl.fab.SendRouted(tc.from, target, buf, msgs)
				wire.PutBuf(direct)
			} else {
				for b, w := range want[:tc.shards] {
					if w.msgs > 0 {
						refClock.AddNetBank(b, cl.netCharge(w.msgs, w.msgs*wire.MsgWireBytes, w.ams, w.sigs))
					}
				}
				cl.fab.Send(tc.from, target, direct, len(recs))
			}
			cl.Quiesce()

			for k, arr := range arrays {
				for i := 0; i < arr.Len(); i++ {
					if got, want := arr.Load(uint64(i)), refArrays[k].Load(uint64(i)); got != want {
						t.Errorf("array %d cell %d = %d, reference %d", k, i, got, want)
					}
				}
			}
			for node := range amGot {
				if got := amGot[node].Load(); got != amWant[node] {
					t.Errorf("node %d AM handlers summed %d, reference %d", node, got, amWant[node])
				}
			}

			ctrOf := func(c *bankCounters) [4]int64 {
				return [4]int64{c.pkts.Load(), c.msgs.Load(), c.ams.Load(), c.sigs.Load()}
			}
			wantCtr := func(w tally) [4]int64 {
				if w.msgs == 0 {
					return [4]int64{}
				}
				return [4]int64{1, int64(w.msgs), int64(w.ams), int64(w.sigs)}
			}
			switch {
			case tc.from == target: // bypass: one packet, nothing on the banks
				if got := ctrOf(&cl.bypass[target]); got != wantCtr(all) {
					t.Errorf("bypass counters = %v, want %v", got, wantCtr(all))
				}
				want = [fabric.MaxResolverBanks]tally{}
			case tc.routed: // the whole packet is bank 0's
				want = [fabric.MaxResolverBanks]tally{0: all}
			}
			for b := 0; b < tc.shards; b++ {
				if got := ctrOf(&cl.resv[target][b]); got != wantCtr(want[b]) {
					t.Errorf("bank %d counters = %v, want %v", b, got, wantCtr(want[b]))
				}
			}

			got, ref := cl.nodes[target].Clocks.Snapshot(), refClock.Snapshot()
			if got.Net != ref.Net {
				t.Errorf("net clock = %v, reference %v", got.Net, ref.Net)
			}
			for b := range ref.NetBanks {
				if got.NetBanks[b] != ref.NetBanks[b] {
					t.Errorf("net bank %d = %v, reference %v", b, got.NetBanks[b], ref.NetBanks[b])
				}
			}
			if n := cl.nodes[target].Clocks.Snapshot().NetMsgs; n != int64(all.msgs) {
				t.Errorf("CountNetMsgs = %d, want %d", n, all.msgs)
			}
		})
	}
}

// TestApplyZeroAllocs pins a full 64 kB packet's apply at zero heap
// allocations on both paths: through a resolver goroutine (send, apply,
// Done, quiescence) and through the node-local bypass.
func TestApplyZeroAllocs(t *testing.T) {
	if obs.Enabled() {
		t.Fatal("flight recorder is enabled; this guard pins the disabled path")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	cl := New(Config{Nodes: 2})
	defer cl.Close()
	arr := cl.space.Alloc(1 << 12)
	tmpls, msgs := incPackets(cl, arr, 1, 1)
	for _, from := range []int{0, 1} {
		allocs := testing.AllocsPerRun(50, func() {
			cl.fab.Send(from, 1, append(wire.GetBuf(len(tmpls[0])), tmpls[0]...), msgs)
			cl.Quiesce()
		})
		if allocs != 0 {
			t.Errorf("applying a %d-message packet from node %d allocated %.2f times, want 0", msgs, from, allocs)
		}
	}
	if got, want := arr.Sum(), uint64(2*51*msgs); got != want {
		t.Fatalf("%d of %d increments applied", got, want)
	}
}

// TestBadRecordUnwindsStep: a well-framed record naming something the
// node does not have — an unallocated array, an unregistered AM handler,
// an undefined op — must not panic a resolver (or aggregator) goroutine.
// Step unwinds with a typed *WireDecodeError naming the record, within a
// deadline, on the resolver and the bypass path alike.
func TestBadRecordUnwindsStep(t *testing.T) {
	bad := []struct {
		name, detail string
		cmd          uint64
	}{
		{"array", "unallocated array 7", wire.PackCmd(wire.OpInc, 0, 7)},
		{"signal-array", "unallocated signal array 9", wire.PackSigCmd(0, 9, 1)},
		{"handler", "unregistered AM handler 3", wire.PackCmd(wire.OpAM, 3, 0)},
		{"op", "undefined op", wire.PackCmd(wire.Op(0x7f), 0, 0)},
		{"zero", "undefined op", 0},
	}
	for _, tc := range bad {
		for _, shards := range []int{1, 4} {
			for _, from := range []int{0, 1} {
				cl := New(Config{Nodes: 2, ResolverShards: shards})
				arr := cl.space.Alloc(16) // id 0: the good record's array
				cl.RegisterAM(func(int, uint64, uint64) {})
				buf := wire.AppendRecord(wire.GetBuf(2*wire.MsgWireBytes), wire.PackCmd(wire.OpInc, 0, arr.ID()), 8, 1)
				buf = wire.AppendRecord(buf, tc.cmd, 8, 1)
				cl.fab.Send(from, 1, buf, 2)

				done := make(chan any, 1)
				go func() {
					defer func() { done <- recover() }()
					cl.Step("after-bad-record", []int{0, 0}, 0, func(rt.Ctx) {})
				}()
				var r any
				select {
				case r = <-done:
				case <-time.After(10 * time.Second):
					t.Fatalf("%s shards=%d from=%d: Step did not unwind", tc.name, shards, from)
				}
				err, _ := r.(error)
				var wde *WireDecodeError
				if !errors.As(err, &wde) {
					t.Fatalf("%s shards=%d from=%d: Step panic = %v (%T), want *WireDecodeError", tc.name, shards, from, r, r)
				}
				if wde.Node != 1 || wde.From != from || wde.Bytes != 2*wire.MsgWireBytes || wde.Routed {
					t.Errorf("%s shards=%d from=%d: error coordinates wrong: %+v", tc.name, shards, from, wde)
				}
				if wde.Err == nil || !strings.Contains(wde.Err.Error(), tc.detail) {
					t.Errorf("%s shards=%d from=%d: cause %v does not name %q", tc.name, shards, from, wde.Err, tc.detail)
				}
				cl.Close()
			}
		}
	}
}
