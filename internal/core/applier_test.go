package core

import (
	"errors"
	"fmt"
	"runtime/debug"
	"slices"
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
// flips on every record, and both ends of node 1's window. Every cell is
// node 1's own: a node applies only cells in its window (the ownership
// rule, DESIGN.md §4.12), so the misrouted record this packet used to
// carry is now TestBadRecordUnwindsStep's foreign-cell row.
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
		{am, 5, 6},
		{wire.PackSigCmd(blk.ID(), sig.ID(), 5), 20, 42},
		{inc(blk), 31, 1}, {inc(blk), 16, 1}, {put(blk), 19, 8}, {inc(sym), 15, 2},
	}
	return []*pgas.Array{blk, sym, rng, sig}, recs
}

// receiveRoutes are the two ways a record reaches node 1's memory.
var receiveRoutes = []struct {
	name string
	from int
}{{"resolver", 0}, {"bypass", 1}}

// TestApplierMatchesReference pushes the mixed packet through every
// receive path and checks it against checkAgainstReference's reference.
func TestApplierMatchesReference(t *testing.T) {
	for _, route := range receiveRoutes {
		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", route.name, shards), func(t *testing.T) {
				checkAgainstReference(t, shards, route.from, func(sp *pgas.Space, h uint8) ([]*pgas.Array, [][3]uint64, int) {
					arrays, recs := mixedRecords(sp, h)
					return arrays, recs, -1
				})
			})
		}
	}
}

// runRecords is mixedRecords' seeded sibling: the same arrays, and a
// packet of runs over node 1's cells. A run is one command word (all
// eleven appear; AM and PUT_SIGNAL runs fall between Inc runs) of length
// 1 to 300, so runs cross pass's chunk boundary and one ends the packet;
// every fourth run flips between two words on every record instead. The
// windows are 4 to 16 cells, so Inc and Put interleave on the same cell
// all the time. shape picks the bad record, whose index is returned (-1
// for none): 1 puts a foreign cell in the middle of the longest run, 2 a
// zero command word at a random place.
func runRecords(sp *pgas.Space, h uint8, seed uint64, shape int) (arrays []*pgas.Array, recs [][3]uint64, badAt int) {
	arrays, _ = mixedRecords(sp, h)
	blk, sym, rng, sig := arrays[0], arrays[1], arrays[2], arrays[3]
	type word struct {
		cmd    uint64
		lo, hi uint64 // node 1's cells of the word's data array
	}
	var words []word
	for _, a := range []*pgas.Array{blk, sym, rng} {
		lo, hi := a.LocalRange(1)
		for _, op := range []wire.Op{wire.OpInc, wire.OpPut} {
			words = append(words, word{wire.PackCmd(op, 0, a.ID()), uint64(lo), uint64(hi)})
		}
		words = append(words, word{wire.PackSigCmd(a.ID(), sig.ID(), uint32(4+len(words)%4)), uint64(lo), uint64(hi)})
	}
	words = append(words, word{wire.PackCmd(wire.OpAM, h, 0), 0, 1 << 20})
	x := seed*2654435761 + 88172645463325252
	next := func(n uint64) uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x % n
	}
	longest, longestAt := 0, 0
	for r := 0; r < 24; r++ {
		w, n := [2]word{words[next(uint64(len(words)))], words[next(uint64(len(words)))]}, []int{1, 1, 2, 3, 17, 300}[next(6)]
		if r%4 != 3 {
			w[1] = w[0]
		}
		if n > longest && w[0].hi-w[0].lo < 1<<20 {
			longest, longestAt = n, len(recs)
		}
		for i := 0; i < n; i++ {
			recs = append(recs, [3]uint64{w[i%2].cmd, w[i%2].lo + next(w[i%2].hi-w[i%2].lo), 1 + next(9)})
		}
	}
	switch shape {
	case 1:
		badAt = longestAt + longest/2
		recs[badAt][1] = 0 // node 0's cell in all three arrays
	case 2:
		badAt = int(next(uint64(len(recs))))
		recs[badAt][0] = 0
	default:
		badAt = -1
	}
	return arrays, recs, badAt
}

// TestApplierRunsMatchReference is the differential test for run
// boundaries: seeded packets of runs, clean and with one bad record,
// through every route at every shard count, against the reference.
func TestApplierRunsMatchReference(t *testing.T) {
	for _, route := range receiveRoutes {
		for _, shards := range []int{1, 2, 4} {
			for seed := uint64(1); seed <= 6; seed++ {
				t.Run(fmt.Sprintf("%s/shards=%d/seed=%d", route.name, shards, seed), func(t *testing.T) {
					checkAgainstReference(t, shards, route.from, func(sp *pgas.Space, h uint8) ([]*pgas.Array, [][3]uint64, int) {
						return runRecords(sp, h, seed, int(seed%3))
					})
				})
			}
		}
	}
}

// checkAgainstReference sends gen's packet to node 1 of 4 by one route
// and checks array contents, AM handler effects, the route's bankCounters
// and node 1's net clock against a reference built the old way, a record
// at a time: one op switch, Array.Add/Store, and the charge formula
// applied to record counts. gen's third result is the index of the
// packet's one bad record, or -1. The reference then applies what the
// route does: a (sub-)packet's records before its bad one, in the order
// the route visits them, and no charge or count for that (sub-)packet;
// Quiesce must panic a *WireDecodeError.
func checkAgainstReference(t *testing.T, shards, from int, gen func(*pgas.Space, uint8) ([]*pgas.Array, [][3]uint64, int)) {
	const nodes, target = 4, 1
	amOf := func(a, v uint64) uint64 { return a*31 + v }
	cl := New(Config{Nodes: nodes, ResolverShards: shards})
	defer cl.Close()
	var amGot [nodes]atomic.Uint64
	h := cl.RegisterAM(func(node int, a, v uint64) { amGot[node].Add(amOf(a, v)) })
	arrays, recs, badAt := gen(cl.Space(), h)
	refSp := pgas.NewSpace(nodes)
	refArrays, _, _ := gen(refSp, h)

	// What fails together: the resolver's per-bank sub-packets each on
	// their own; the bypass's bank-major passes as one.
	units := make([][]int, shards)
	for i, r := range recs {
		b := fabric.BankOfRecord(r[0], r[1], shards)
		units[b] = append(units[b], i)
	}
	if from == target {
		units = [][]int{slices.Concat(units...)}
	}
	var amWant [nodes]uint64
	var want [fabric.MaxResolverBanks]tally
	var all tally
	for _, unit := range units {
		var got [fabric.MaxResolverBanks]tally
		ok := true
		for _, i := range unit {
			if ok = i != badAt; !ok {
				break
			}
			cmd, a, v := recs[i][0], recs[i][1], recs[i][2]
			w := &got[fabric.BankOfRecord(cmd, a, shards)]
			w.msgs++
			switch op, _, arr := wire.UnpackCmd(cmd); op {
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
		}
		for b, w := range got {
			if ok { // a failed (sub-)packet is neither counted nor charged
				want[b] = tally{want[b].msgs + w.msgs, want[b].ams + w.ams, want[b].sigs + w.sigs}
				all = tally{all.msgs + w.msgs, all.ams + w.ams, all.sigs + w.sigs}
			}
		}
	}
	refClock := &timemodel.Clocks{}
	refClock.ConfigureNetBanks(shards)
	for b, w := range want[:shards] {
		if w.msgs > 0 {
			refClock.AddNetBank(b, cl.netCharge(w.msgs, w.msgs*wire.MsgWireBytes, w.ams, w.sigs))
		}
	}
	buf := wire.GetBuf(len(recs) * wire.MsgWireBytes)
	for _, r := range recs {
		buf = wire.AppendRecord(buf, r[0], r[1], r[2])
	}
	cl.fab.Send(from, target, buf, len(recs))

	func() {
		defer func() {
			err, _ := recover().(error)
			var wde *WireDecodeError
			if failed := errors.As(err, &wde); failed != (badAt >= 0) {
				t.Fatalf("Quiesce panic = %v, bad record at %d", err, badAt)
			}
			// The failure unwinds while other banks are still applying.
			cl.fab.Progress().Wait(cl.fab.Quiet)
		}()
		cl.Quiesce()
	}()

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

	wantCtr := func(w tally) timemodel.Resolved {
		if w.msgs == 0 {
			return timemodel.Resolved{}
		}
		return timemodel.Resolved{Pkts: 1, Msgs: int64(w.msgs), AMs: int64(w.ams), Sigs: int64(w.sigs)}
	}
	clk := cl.nodes[target].Clocks
	if from == target { // bypass: one packet, nothing on the banks
		if got := clk.Snapshot().Bypass; got != wantCtr(all) {
			t.Errorf("bypass counters = %v, want %v", got, wantCtr(all))
		}
		want = [fabric.MaxResolverBanks]tally{}
	}
	for b := 0; b < shards; b++ {
		if got := clk.Bank(b); got != wantCtr(want[b]) {
			t.Errorf("bank %d counters = %v, want %v", b, got, wantCtr(want[b]))
		}
	}

	got, ref := clk.Snapshot(), refClock.Snapshot()
	if got.Net != ref.Net {
		t.Errorf("net clock = %v, reference %v", got.Net, ref.Net)
	}
	for b := range ref.NetBanks {
		if got.NetBanks[b] != ref.NetBanks[b] {
			t.Errorf("net bank %d = %v, reference %v", b, got.NetBanks[b], ref.NetBanks[b])
		}
	}
	if n := got.NetMsgs; n != int64(all.msgs) {
		t.Errorf("NetMsgs = %d, want %d", n, all.msgs)
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
// an undefined op, a data or signal cell past the array's end or in
// another node's window — must not panic a resolver (or aggregator)
// goroutine.
// Step unwinds with a typed *WireDecodeError naming the record, within a
// deadline, on the resolver and the bypass path alike.
func TestBadRecordUnwindsStep(t *testing.T) {
	const own = 8 // node 1's first cell of the 16-cell array 0, on bank 0
	bad := []struct {
		name, detail string
		cmd, a       uint64
	}{
		{"array", "unallocated array 7", wire.PackCmd(wire.OpInc, 0, 7), own},
		{"signal-array", "unallocated signal array 9", wire.PackSigCmd(0, 9, 1), own},
		{"handler", "unregistered AM handler 3", wire.PackCmd(wire.OpAM, 3, 0), own},
		{"op", "undefined op", wire.PackCmd(wire.Op(0x7f), 0, 0), own},
		{"zero", "undefined op", 0, own},
		{"past-end", "cell 1099511627776 of array 0, which node 1 does not own", wire.PackCmd(wire.OpInc, 0, 0), 1 << 40},
		{"foreign-cell", "cell 4 of array 0, which node 1 does not own", wire.PackCmd(wire.OpPut, 0, 0), 4},
		{"signal-past-end", "cell 99 of array 0, which node 1 does not own", wire.PackSigCmd(0, 0, 99), own},
	}
	for _, tc := range bad {
		for _, shards := range []int{1, 4} {
			for _, from := range []int{0, 1} {
				cl := New(Config{Nodes: 2, ResolverShards: shards})
				arr := cl.space.Alloc(16) // id 0: the good record's array
				cl.RegisterAM(func(int, uint64, uint64) {})
				buf := wire.AppendRecord(wire.GetBuf(2*wire.MsgWireBytes), wire.PackCmd(wire.OpInc, 0, arr.ID()), own, 1)
				buf = wire.AppendRecord(buf, tc.cmd, tc.a, 1)
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
				if wde.Node != 1 || wde.From != from || wde.Bytes != 2*wire.MsgWireBytes {
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

// TestWalkStopsAtBadRecord drives an applier by hand over a packet whose
// Inc run has a foreign cell in the middle: nothing after the bad record
// is applied and the tallies stop at it — in packet order at one shard,
// in bank order (the bad record is bank 0's, so banks 1 to 3 never run)
// at four.
func TestWalkStopsAtBadRecord(t *testing.T) {
	for _, tc := range []struct {
		shards int
		bank0  tally
		cells  [4]uint64 // cells 16..19 afterwards
	}{
		{1, tally{msgs: 4, ams: 2}, [4]uint64{5, 5, 0, 0}},
		{4, tally{msgs: 3, ams: 2}, [4]uint64{5, 0, 0, 0}},
	} {
		cl := New(Config{Nodes: 4, ResolverShards: tc.shards})
		blk := cl.space.Alloc(64) // node 1 owns [16,32)
		h := cl.RegisterAM(func(int, uint64, uint64) {})
		am, inc := wire.PackCmd(wire.OpAM, h, 0), wire.PackCmd(wire.OpInc, 0, blk.ID())
		var buf []byte
		for _, r := range [][2]uint64{{am, 1}, {am, 2}, {inc, 16}, {inc, 17}, {inc, 0}, {inc, 18}, {inc, 19}} {
			buf = wire.AppendRecord(buf, r[0], r[1], 5)
		}
		ap := applier{cl: cl, node: 1}
		ap.walk(buf, 0, tc.shards)
		if ap.err == nil || !strings.Contains(ap.err.Error(), "cell 0 of array 0, which node 1 does not own") {
			t.Errorf("shards=%d: err = %v", tc.shards, ap.err)
		}
		if ap.bank[0] != tc.bank0 || ap.bank[1] != (tally{}) || ap.ams != 2 {
			t.Errorf("shards=%d: tallies = %v, ams %d; want bank 0 %v and nothing else", tc.shards, ap.bank[:tc.shards], ap.ams, tc.bank0)
		}
		for i, want := range tc.cells {
			if got := blk.Load(uint64(16 + i)); got != want {
				t.Errorf("shards=%d: cell %d = %d, want %d", tc.shards, 16+i, got, want)
			}
		}
		cl.Close()
	}
}

// FuzzApplierWalk: whatever bytes arrive as a packet, by the resolver
// banks or the bypass, are either applied or rejected with a typed
// *WireDecodeError out of Quiesce. Anything else (a panic on a resolver
// goroutine kills the binary) is a finding.
func FuzzApplierWalk(f *testing.F) {
	seed := func(recs ...[3]uint64) {
		var buf []byte
		for _, r := range recs {
			buf = wire.AppendRecord(buf, r[0], r[1], r[2])
		}
		f.Add(buf, uint8(2), true)
		f.Add(buf, uint8(0), false)
	}
	_, mixed := mixedRecords(pgas.NewSpace(4), 0)
	seed(mixed...)
	seed([3]uint64{wire.PackCmd(wire.OpInc, 0, 0), 1 << 40, 1}, [3]uint64{0, 17, 1})
	seed([3]uint64{wire.PackSigCmd(1, 3, 1<<20), 9, 1}, [3]uint64{wire.PackCmd(wire.OpAM, 9, 0), 0, 0})
	f.Add([]byte("ragged-payload"), uint8(1), false)
	f.Fuzz(func(t *testing.T, data []byte, logShards uint8, bypass bool) {
		cl := New(Config{Nodes: 4, ResolverShards: 1 << (logShards % 3)})
		defer cl.Close()
		mixedRecords(cl.Space(), cl.RegisterAM(func(int, uint64, uint64) {}))
		from := 0
		if bypass {
			from = 1
		}
		cl.fab.Send(from, 1, append(wire.GetBuf(len(data)), data...), max(1, len(data)/wire.MsgWireBytes))
		defer func() {
			if r := recover(); r != nil {
				var wde *WireDecodeError
				if err, _ := r.(error); !errors.As(err, &wde) {
					t.Fatalf("Quiesce panic = %v (%T), want *WireDecodeError", r, r)
				}
			}
		}()
		cl.Quiesce()
	})
}
