package agg

import (
	"sync"

	"gravel/internal/fabric"
	"gravel/internal/obs"
	"gravel/internal/queue"
	"gravel/internal/timemodel"
	"gravel/internal/wire"
)

// Archive is the grape-style aggregation strategy (libgrape-lite's GPU
// MessageManager, ROADMAP item 2): instead of a drain thread repacking
// producer/consumer queue slots into fixed-capacity builders, the
// device appends directly into per-destination growable archives at
// wavefront granularity (one leader reservation for the WF's active
// mask — see simt.Group.WFAggregate), and sealed archive segments are
// bulk-handed to the fabric.
//
// An archive grows by chaining segments: when the open segment fills it
// is sealed and a new one opens at double the capacity, up to the
// per-node queue bound — so lightly-used destinations stay small while
// hot ones converge on full-size packets without per-message repack
// work. With fuse enabled (the grape default), a destination's sealed
// segments merge into one contiguous packet at flush time; without it,
// each segment becomes its own packet.
//
// Flush discipline mirrors the ticket strategy's §3.4 rules: a
// destination whose staged bytes reach the per-node queue bound flushes
// immediately (counted as a full flush), stragglers go out on the
// end-of-step timeout flush, and a PUT_SIGNAL stages its destination's
// whole archive at once so a remote waiter cannot spin on a signal
// parked in a half-filled buffer. Appends and flush decisions only
// stage; the driver transmits.
type Archive struct {
	*driver
	fuse bool

	maxBytes int // per-destination staged-byte bound (flush when reached)

	dests []*destArchive
}

// seg is one sealed archive segment: an encoded run of wire records.
type seg struct {
	buf  []byte
	msgs int
}

// destArchive is one destination's growable archive.
type destArchive struct {
	mu     sync.Mutex
	dest   int
	segCap int // next segment's byte capacity; doubles up to maxBytes
	open   []byte
	openMs int
	sealed []seg
	bytes  int // staged bytes, open + sealed
	msgs   int
}

// NewArchive builds the archive strategy for one node. Initial
// per-destination segment capacity is scaled by cluster size (an even
// split of the per-node queue budget, floor 1 kB), so small clusters
// open big segments and large ones start small and grow on demand. q
// may be nil: the archive model's device appends directly (AppendWF).
func NewArchive(node int, params *timemodel.Params, q *queue.Gravel, fab fabric.Fabric, clock *timemodel.Clocks, fuse bool) *Archive {
	n := fab.Nodes()
	initCap := params.PerNodeQueueBytes / n
	if initCap < 1<<10 {
		initCap = 1 << 10
	}
	if initCap > params.PerNodeQueueBytes {
		initCap = params.PerNodeQueueBytes
	}
	if initCap < wire.MsgWireBytes {
		initCap = wire.MsgWireBytes // a segment holds at least one record
	}
	ar := &Archive{
		driver:   newDriver(node, params, q, fab, clock),
		fuse:     fuse,
		maxBytes: params.PerNodeQueueBytes,
		dests:    make([]*destArchive, n),
	}
	for d := 0; d < n; d++ {
		ar.dests[d] = &destArchive{dest: d, segCap: initCap}
	}
	ar.consume = ar.repack
	return ar
}

// Name implements Strategy.
func (ar *Archive) Name() string { return "archive" }

// repack moves one queue slot's messages into the archives, at the
// same charge as under the ticket strategy, for an archive built over a
// queue; the archive model builds none.
func (ar *Archive) repack(payload []uint64, rows, cols, count int) {
	cmdRow, destRow, aRow, bRow := ar.slotRows(payload, cols, count)
	for m := 0; m < count; m++ {
		ar.append(int(destRow[m]), cmdRow[m], aRow[m], bRow[m])
	}
}

// AppendDirect implements Strategy: host-context staging (AM handler
// follow-ups). It stages only — the driver transmits.
func (ar *Archive) AppendDirect(dest int, cmd, av, vv uint64, chargeNs float64) {
	ar.clock.AddAgg(chargeNs)
	ar.append(dest, cmd, av, vv)
}

// append stages one record, sealing/staging per the flush discipline.
func (ar *Archive) append(dest int, cmd, av, vv uint64) {
	da := ar.dests[dest]
	da.mu.Lock()
	ar.appendLocked(da, cmd, av, vv)
	if wire.Op(cmd&0xff) == wire.OpPutSignal || da.bytes >= ar.maxBytes {
		ar.stageLocked(da, false)
	}
	da.mu.Unlock()
}

// AppendWF stages the given lanes' records for a single destination in
// one warp-aggregated reservation (the device-side ballot/prefix and
// leader atomic are charged by simt.Group.WFAggregate; the archive
// itself does no per-message CPU repack work — that is the strategy's
// whole point): the lane list takes one span of the open segment, split
// only where the segment fills, and each lane's record is stored
// straight into it. cmdOf must be cheap and pure. Stages only.
func (ar *Archive) AppendWF(dest int, lanes []int, cmdOf func(lane int) uint64, a, v []uint64) {
	da := ar.dests[dest]
	da.mu.Lock()
	sig := false
	for len(lanes) > 0 {
		span := ar.reserveLocked(da, len(lanes))
		n := len(span) / wire.MsgWireBytes
		for i, l := range lanes[:n] {
			cmd := cmdOf(l)
			wire.PutRecord(span[i*wire.MsgWireBytes:], cmd, a[l], v[l])
			if wire.Op(cmd&0xff) == wire.OpPutSignal {
				sig = true
			}
		}
		lanes = lanes[n:]
	}
	if sig || da.bytes >= ar.maxBytes {
		ar.stageLocked(da, false)
	}
	da.mu.Unlock()
}

// appendLocked writes one record into da's open segment; da.mu must be
// held.
func (ar *Archive) appendLocked(da *destArchive, cmd, av, vv uint64) {
	wire.PutRecord(ar.reserveLocked(da, 1), cmd, av, vv)
}

// reserveLocked extends da's open segment by up to want (>= 1) records
// and returns the new span for the caller to fill, already counted as
// staged. The span is shorter than asked when the segment has less room
// and never empty: a full segment is sealed first and the next one,
// grown, opened. da.mu must be held.
func (ar *Archive) reserveLocked(da *destArchive, want int) []byte {
	if da.open == nil {
		da.open = wire.GetBuf(da.segCap)
	} else if len(da.open)+wire.MsgWireBytes > da.segCap {
		ar.sealLocked(da)
		da.open = wire.GetBuf(da.segCap)
	}
	off := len(da.open)
	n := min(want, (da.segCap-off)/wire.MsgWireBytes)
	da.open = da.open[:off+n*wire.MsgWireBytes]
	da.openMs += n
	da.bytes += n * wire.MsgWireBytes
	da.msgs += n
	return da.open[off:]
}

// sealLocked closes da's open segment onto the sealed chain and doubles
// the next segment's capacity (up to the per-node bound); da.mu must be
// held. The open segment must be non-empty.
func (ar *Archive) sealLocked(da *destArchive) {
	da.sealed = append(da.sealed, seg{buf: da.open, msgs: da.openMs})
	if obs.Enabled() {
		obs.Emit(obs.KAggArchive, ar.node, int64(len(da.open)), int64(da.openMs), "")
	}
	da.open = nil
	da.openMs = 0
	if da.segCap < ar.maxBytes {
		da.segCap *= 2
		if da.segCap > ar.maxBytes {
			da.segCap = ar.maxBytes
		}
	}
}

// stageLocked seals da's open segment and moves the whole archive to
// the outbox (fused into one contiguous packet per destination, or one
// packet per segment); da.mu must be held.
func (ar *Archive) stageLocked(da *destArchive, timeout bool) {
	if da.open != nil && da.openMs > 0 {
		ar.sealLocked(da)
	}
	if len(da.sealed) == 0 {
		return
	}
	if ar.fuse && len(da.sealed) > 1 {
		merged := wire.GetBuf(da.bytes)
		for _, s := range da.sealed {
			merged = append(merged, s.buf...)
			wire.PutBuf(s.buf)
		}
		ar.stage(da.dest, merged, da.msgs, timeout)
	} else {
		for _, s := range da.sealed {
			ar.stage(da.dest, s.buf, s.msgs, timeout)
		}
	}
	da.sealed = da.sealed[:0]
	da.bytes = 0
	da.msgs = 0
}

// Flush implements Strategy: the end-of-step timeout flush. It drains
// the queue on the caller's thread, stages every archive in destination
// order — with timeout set, as only a Flush does, so no aggregator
// thread is woken for them — and transmits them itself.
func (ar *Archive) Flush() {
	ar.Drain()
	for _, da := range ar.dests {
		da.mu.Lock()
		ar.stageLocked(da, true)
		da.mu.Unlock()
	}
	ar.pump()
}

// Pending implements Strategy.
func (ar *Archive) Pending() bool {
	for _, da := range ar.dests {
		da.mu.Lock()
		pending := da.msgs > 0
		da.mu.Unlock()
		if pending {
			return true
		}
	}
	return ar.unsent()
}

var _ Strategy = (*Archive)(nil)
