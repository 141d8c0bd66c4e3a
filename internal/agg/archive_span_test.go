package agg

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"gravel/internal/fabric"
	"gravel/internal/park"
	"gravel/internal/queue"
	"gravel/internal/timemodel"
	"gravel/internal/wire"
)

// byteFabric keeps every packet's exact bytes.
type byteFabric struct {
	fabric.Fabric
	nodes int
	pkts  []string
}

func (f *byteFabric) Nodes() int            { return f.nodes }
func (f *byteFabric) Progress() *park.Event { return nil }
func (f *byteFabric) Send(from, to int, buf []byte, msgs int) {
	f.pkts = append(f.pkts, fmt.Sprintf("to %d msgs %d: %s", to, msgs, buf))
	wire.PutBuf(buf)
}

// appendWFRef is AppendWF as it was before span reservation: one
// record at a time — open or seal-and-reopen the segment, stage the
// record in a stack array, append it, bump the counts — and the flush
// decision after the last lane.
func appendWFRef(ar *Archive, dest int, lanes []int, cmdOf func(lane int) uint64, a, v []uint64) {
	da := ar.dests[dest]
	da.mu.Lock()
	sig := false
	for _, l := range lanes {
		cmd := cmdOf(l)
		if da.open == nil {
			da.open = wire.GetBuf(da.segCap)
		} else if len(da.open)+wire.MsgWireBytes > da.segCap {
			ar.sealLocked(da)
			da.open = wire.GetBuf(da.segCap)
		}
		var rec [wire.MsgWireBytes]byte
		binary.LittleEndian.PutUint64(rec[0:8], cmd)
		binary.LittleEndian.PutUint64(rec[8:16], a[l])
		binary.LittleEndian.PutUint64(rec[16:24], v[l])
		da.open = append(da.open, rec[0:len(rec)]...)
		da.openMs++
		da.bytes += wire.MsgWireBytes
		da.msgs++
		if wire.Op(cmd&0xff) == wire.OpPutSignal {
			sig = true
		}
	}
	if sig || da.bytes >= ar.maxBytes {
		ar.stageLocked(da, false)
	}
	da.mu.Unlock()
}

// archiveDiff compares everything an append can change — each
// destination's archive, the outbox, the flush counters — and names
// the first difference, or returns "".
func archiveDiff(got, want *Archive) string {
	for d, g := range got.dests {
		w := want.dests[d]
		if g.segCap != w.segCap || g.openMs != w.openMs || g.bytes != w.bytes || g.msgs != w.msgs || !bytes.Equal(g.open, w.open) {
			return fmt.Sprintf("dest %d: segCap %d open %d B/%d msgs, staged %d B/%d msgs; want segCap %d open %d B/%d msgs, staged %d B/%d msgs (or the open bytes differ)",
				d, g.segCap, len(g.open), g.openMs, g.bytes, g.msgs, w.segCap, len(w.open), w.openMs, w.bytes, w.msgs)
		}
		if !slices.EqualFunc(g.sealed, w.sealed, func(x, y seg) bool { return x.msgs == y.msgs && bytes.Equal(x.buf, y.buf) }) {
			return fmt.Sprintf("dest %d: %d sealed segments against %d, or their contents differ", d, len(g.sealed), len(w.sealed))
		}
	}
	if !slices.EqualFunc(got.ready, want.ready, func(x, y readyPkt) bool {
		return x.dest == y.dest && x.msgs == y.msgs && bytes.Equal(x.buf, y.buf)
	}) {
		return fmt.Sprintf("outbox: %d packets against %d, or their contents differ", len(got.ready), len(want.ready))
	}
	g, w := got.clock.Snapshot(), want.clock.Snapshot()
	if g.FlushesFull != w.FlushesFull || g.FlushesTimeout != w.FlushesTimeout {
		return fmt.Sprintf("flushes: %d full %d timeout, want %d full %d timeout", g.FlushesFull, g.FlushesTimeout, w.FlushesFull, w.FlushesTimeout)
	}
	return ""
}

// TestAppendWFMatchesPerRecord drives two archives with the same
// random lane lists — lists long enough to run across one and two
// segment seals and the maxBytes flush in a single call, with
// PUT_SIGNALs anywhere in them, single-record host appends in between
// — one through AppendWF, one through the per-record reference, and
// compares the archives after every call and the packets after every
// Flush: same bytes, same segment and packet boundaries, same flush
// counts.
func TestAppendWFMatchesPerRecord(t *testing.T) {
	for _, tc := range []struct{ nodes, queueBytes, maxLanes int }{
		{8, 4096, 300}, // segments of 1 kB, 2 kB, then the 4 kB bound
		{2, 64 << 10, 256},
		{2, 100, 40},
		{2, 4 * wire.MsgWireBytes, 40}, // a segment that fills to the byte
		{2, wire.MsgWireBytes, 5},
		{2, 10, 5}, // less than a record: every record its own packet
	} {
		for _, fuse := range []bool{true, false} {
			t.Run(fmt.Sprintf("nodes=%d/queue=%d/fuse=%v", tc.nodes, tc.queueBytes, fuse), func(t *testing.T) {
				p := *timemodel.Default()
				p.PerNodeQueueBytes = tc.queueBytes
				build := func() (*Archive, *byteFabric) {
					fab := &byteFabric{nodes: tc.nodes}
					return NewArchive(0, &p, queue.NewGravel(4, wire.SlotRows, 4), fab, &timemodel.Clocks{}, fuse), fab
				}
				got, gotFab := build()
				want, wantFab := build()

				r := rand.New(rand.NewSource(int64(tc.queueBytes)))
				wg := tc.maxLanes
				cmds, a, v := make([]uint64, wg), make([]uint64, wg), make([]uint64, wg)
				cmdOf := func(l int) uint64 { return cmds[l] }
				for call := 0; call < 400; call++ {
					dest := r.Intn(tc.nodes)
					lanes := r.Perm(wg)[:1+r.Intn(wg)]
					for _, l := range lanes {
						cmds[l], a[l], v[l] = wire.PackCmd(wire.OpInc, 0, uint16(r.Intn(4))), r.Uint64(), r.Uint64()
					}
					if r.Intn(8) == 0 {
						l := lanes[r.Intn(len(lanes))]
						cmds[l] = wire.PackSigCmd(1, 2, uint32(r.Intn(100)))
					}
					switch r.Intn(10) {
					case 0: // a host-context append between device appends
						got.AppendDirect(dest, cmds[lanes[0]], a[lanes[0]], v[lanes[0]], 0)
						appendWFRef(want, dest, lanes[:1], cmdOf, a, v)
					default:
						got.AppendWF(dest, lanes, cmdOf, a, v)
						appendWFRef(want, dest, lanes, cmdOf, a, v)
					}
					if diff := archiveDiff(got, want); diff != "" {
						t.Fatalf("call %d (%d lanes to %d): %s", call, len(lanes), dest, diff)
					}
					if call%50 == 49 {
						got.Flush()
						want.Flush()
					}
				}
				got.Flush()
				want.Flush()
				if diff := archiveDiff(got, want); diff != "" {
					t.Fatalf("after the last Flush: %s", diff)
				}
				if len(gotFab.pkts) == 0 || !slices.Equal(gotFab.pkts, wantFab.pkts) {
					t.Fatalf("%d packets against the reference's %d, or their bytes differ", len(gotFab.pkts), len(wantFab.pkts))
				}
			})
		}
	}
}
