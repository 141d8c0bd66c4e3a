// Package queue implements Gravel's GPU-efficient producer/consumer
// queue (§4) plus the two CPU-only baselines the paper compares against
// in Figure 8 (a single-producer/single-consumer ring and a padded
// multi-producer/multi-consumer ticket queue).
//
// The Gravel queue is a genuine concurrent data structure: producers and
// consumers may be any goroutines. Each queue slot is a two-dimensional
// array — one column per work-item of a work-group — so that an entire
// WG deposits its messages with a single reservation (one fetch-add by a
// leader lane), and lanes writing row r of the slot touch adjacent words
// (the memory-coalescing-friendly layout of Figure 7).
//
// Slot protocol (§4.2, Figure 7):
//
//	producer:  si   = fetch_add(WriteIdx) mod slots
//	           tick = fetch_add(slot.WriteTick)
//	           wait until slot.N == tick && slot.F == 0   // own the slot
//	           write payload columns; slot.F = 1          // commit
//	consumer:  si   = claim(ReadIdx) mod slots
//	           tick = fetch_add(slot.ReadTick)
//	           wait until slot.N == tick && slot.F == 1   // own the slot
//	           read payload; slot.F = 0; slot.N++         // release
//
// The one deviation from the paper is that consumers claim ReadIdx with
// a compare-and-swap bounded by the count of committed slots instead of
// an unconditional fetch-add, so that a consumer never commits to a slot
// generation that has not been published. This makes TryConsume
// non-blocking (needed for clean drain/shutdown) and costs the same
// single atomic on success.
package queue

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"gravel/internal/obs"
	"gravel/internal/park"
)

type pad64 struct{ _ [64]byte }

// slotHeader holds the per-slot synchronization state of §4.2. It is
// padded so headers of adjacent slots do not share a cache line.
type slotHeader struct {
	writeTick atomic.Uint64
	readTick  atomic.Uint64
	n         atomic.Uint64 // current ticket
	full      atomic.Uint32 // F: full/empty bit
	count     uint32        // messages in the slot; guarded by the protocol
	_         [32]byte
}

// Gravel is the producer/consumer queue of §4. Rows is the number of
// 64-bit words per message; Cols is the number of messages (columns) a
// slot can hold — normally the work-group size.
type Gravel struct {
	Rows, Cols int

	// Owner is the node the queue belongs to, used to attribute trace
	// events; it is not part of the queue protocol.
	Owner int

	mask    uint64
	headers []slotHeader
	payload []uint64 // numSlots * Rows * Cols, slot-major then row-major

	_         pad64
	writeIdx  atomic.Uint64
	_         pad64
	readIdx   atomic.Uint64
	_         pad64
	reserved  atomic.Uint64 // reservations started (quiescence bound)
	_         pad64
	committed atomic.Uint64 // slots committed; bounds consumer claims
	_         pad64

	// consumer, when set, is woken by every Commit (WakeOnCommit).
	consumer *park.Event
}

// NewGravel creates a queue with numSlots slots (rounded up to a power
// of two) of rows x cols 64-bit words each.
func NewGravel(numSlots, rows, cols int) *Gravel {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("queue: invalid slot shape %dx%d", rows, cols))
	}
	n := 1
	for n < numSlots {
		n <<= 1
	}
	q := &Gravel{
		Rows:    rows,
		Cols:    cols,
		mask:    uint64(n - 1),
		headers: make([]slotHeader, n),
		payload: make([]uint64, n*rows*cols),
	}
	return q
}

// WakeOnCommit names the event a consumer that parks when the queue is
// empty waits on; every Commit wakes it. It must be called before the
// first Reserve.
func (q *Gravel) WakeOnCommit(e *park.Event) { q.consumer = e }

// NumSlots returns the slot count.
func (q *Gravel) NumSlots() int { return len(q.headers) }

// Slot is a reserved queue slot being filled by a producer.
type Slot struct {
	q   *Gravel
	hdr *slotHeader
	buf []uint64
}

// Row returns the words of row r for the reserved message count; lane i
// of the producing work-group writes Row(r)[i].
func (s *Slot) Row(r int) []uint64 {
	c := s.q.Cols
	return s.buf[r*c : r*c+int(s.hdr.count)]
}

// Count returns the number of messages reserved in the slot.
func (s *Slot) Count() int { return int(s.hdr.count) }

// Reserve claims one slot on behalf of a work-group that will deposit
// count messages (1 <= count <= Cols). It blocks while the queue is
// full. Atomics performed: one fetch-add on WriteIdx, one fetch-add on
// the slot's WriteTick (2 total, regardless of count — this is the
// WG-level synchronization amortization of §4.1).
func (q *Gravel) Reserve(count int) Slot {
	if count <= 0 || count > q.Cols {
		panic(fmt.Sprintf("queue: Reserve(%d) outside [1,%d]", count, q.Cols))
	}
	q.reserved.Add(1)
	si := q.writeIdx.Add(1) - 1
	hdr := &q.headers[si&q.mask]
	tick := hdr.writeTick.Add(1) - 1
	if hdr.n.Load() != tick || hdr.full.Load() != 0 {
		q.waitProduce(hdr, tick)
	}
	if obs.Enabled() {
		obs.Emit(obs.KSlotReserve, q.Owner, int64(count), int64(si), "")
	}
	hdr.count = uint32(count)
	base := int(si&q.mask) * q.Rows * q.Cols
	return Slot{q: q, hdr: hdr, buf: q.payload[base : base+q.Rows*q.Cols]}
}

// Commit publishes the slot to consumers (sets the full bit F).
func (s Slot) Commit() {
	s.hdr.full.Store(1)
	s.q.committed.Add(1)
	s.q.consumer.Wake()
}

// TryConsume attempts to claim one full slot; if successful it invokes
// fn with the slot's payload (row-major, Cols stride) and message count,
// releases the slot, and returns true. It returns false when no
// committed or in-flight reservation is available.
func (q *Gravel) TryConsume(fn func(payload []uint64, rows, cols, count int)) bool {
	var si uint64
	for {
		r := q.readIdx.Load()
		if r >= q.committed.Load() {
			// Nothing is committed beyond what has been claimed. (A
			// reservation may still be being filled; its Commit will
			// raise the bound.)
			return false
		}
		if q.readIdx.CompareAndSwap(r, r+1) {
			si = r
			break
		}
	}
	hdr := &q.headers[si&q.mask]
	tick := hdr.readTick.Add(1) - 1
	if hdr.n.Load() != tick || hdr.full.Load() != 1 {
		q.waitConsume(hdr, tick)
	}
	base := int(si&q.mask) * q.Rows * q.Cols
	fn(q.payload[base:base+q.Rows*q.Cols], q.Rows, q.Cols, int(hdr.count))
	hdr.full.Store(0)
	hdr.n.Add(1)
	return true
}

// waitProduce is the producer slow path: the slot is still owned by a
// previous generation (queue effectively full for this slot). Keeping
// the wait out of Reserve keeps the uncontended fast path branch-only;
// the flight recorder only times waits that actually happened.
func (q *Gravel) waitProduce(hdr *slotHeader, tick uint64) {
	var t0 int64
	if traced := obs.Enabled(); traced {
		t0 = obs.Now()
	}
	for spin := 0; hdr.n.Load() != tick || hdr.full.Load() != 0; spin++ {
		backoff(spin)
	}
	if obs.Enabled() {
		obs.ObserveQueueWait(q.Owner, obs.Now()-t0)
	}
}

// waitConsume is the consumer slow path: the claimed slot's reservation
// has not been committed yet (queue momentarily empty behind a producer
// mid-fill).
func (q *Gravel) waitConsume(hdr *slotHeader, tick uint64) {
	var t0 int64
	if traced := obs.Enabled(); traced {
		t0 = obs.Now()
	}
	for spin := 0; hdr.n.Load() != tick || hdr.full.Load() != 1; spin++ {
		backoff(spin)
	}
	if obs.Enabled() {
		obs.ObserveConsumeWait(q.Owner, obs.Now()-t0)
	}
}

// spinBudget is how many iterations a slot wait burns as a pure spin
// before escalating to the scheduler. The common wait — the consumer
// one tick behind a producer mid-fill — resolves within nanoseconds, so
// a short spin wins; past the budget the waiter is almost certainly
// behind a descheduled peer and yielding beats burning the core (the
// fixed spin%16 cadence previously yielded even on the shortest waits).
const spinBudget = 64

// backoff is the slot-wait strategy: spin flat-out within the budget,
// then yield to the scheduler on every iteration.
func backoff(spin int) {
	if spin >= spinBudget {
		runtime.Gosched()
	}
}

// Ready reports whether a committed slot is waiting to be claimed: a
// TryConsume begun now would find one, unless another consumer takes it
// first.
func (q *Gravel) Ready() bool {
	return q.readIdx.Load() < q.committed.Load()
}

// Empty reports whether every reservation has been consumed.
func (q *Gravel) Empty() bool {
	return q.readIdx.Load() >= q.reserved.Load()
}

// ProducerAtomicsPerReserve is the number of global atomic RMW
// operations one WG-level reservation performs (WriteIdx and WriteTick
// fetch-adds). The commit is a plain release store.
const ProducerAtomicsPerReserve = 2

// ConsumerAtomicsPerClaim is the number of atomic RMW operations one
// consumer claim performs (ReadIdx claim and ReadTick fetch-add).
const ConsumerAtomicsPerClaim = 2
