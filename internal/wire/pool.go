package wire

import (
	"math/bits"
	"sync"
)

// Packet-buffer pool: the hot path flushes one per-node queue every
// 64 kB of traffic, and before pooling each flush allocated a fresh
// buffer that died as soon as the receiver applied it — per-packet
// garbage exactly like the per-message synchronization the paper's §4.1
// WG-level reservation amortizes away. Builders draw flush buffers from
// here, ownership travels with the packet through Send/Inbox/Done, and
// Done returns the buffer for the next flush.
//
// A recycled buffer waits first in its size class's free list, which
// keeps a few and never drops one: a sync.Pool may (a race build drops
// one Put in four on purpose), and a dropped buffer is a fresh
// allocation at the next flush. The rest go to two sync.Pools, which a
// collection empties: bufs holds recycled buffers boxed in *[]byte
// holders, and holders keeps the empty boxes circulating (putting a raw
// []byte into a sync.Pool would heap-allocate its interface box on
// every Put).
var (
	free    [poolClasses]freeList
	bufs    sync.Pool // *[]byte carrying a recycled buffer
	holders sync.Pool // *[]byte with a nil slice, ready to carry one
)

// What the free lists keep outlives every collection, so they keep only
// the few buffers a flush round trip has in flight.
const (
	poolClasses  = 32
	freePerClass = 4
)

// freeList is one size class's never-dropping recycle: class k holds
// buffers of capacity at least minPooledBytes<<k.
type freeList struct {
	mu   sync.Mutex
	n    int
	bufs [freePerClass][]byte
}

// class is the size class of a capacity of at least minPooledBytes.
func class(capBytes int) int { return bits.Len(uint(capBytes)) - bits.Len(minPooledBytes) }

// take returns a kept buffer, or nil if the list is empty.
func (l *freeList) take() (b []byte) {
	l.mu.Lock()
	if l.n > 0 {
		l.n--
		b, l.bufs[l.n] = l.bufs[l.n], nil
	}
	l.mu.Unlock()
	return b
}

// keep keeps b, emptied, unless the list is full.
func (l *freeList) keep(b []byte) (kept bool) {
	l.mu.Lock()
	if kept = l.n < freePerClass; kept {
		l.bufs[l.n] = b[:0]
		l.n++
	}
	l.mu.Unlock()
	return kept
}

// minPooledBytes keeps tiny buffers (per-message-mode packets, test
// scraps) out of the pool: pooling them would let a 24-byte buffer
// bounce a 64 kB request into a fresh allocation. Small buffers are
// cheap enough for the GC.
const minPooledBytes = 1 << 10

// poolRound rounds a capacity request up to a power of two so buffers
// from builders, routed builders, and transport receive paths — whose
// exact record-aligned capacities differ by a few bytes — land in one
// size class and recycle into each other.
func poolRound(n int) int {
	p := minPooledBytes
	for p < n {
		p <<= 1
	}
	return p
}

// GetBuf returns an empty buffer with capacity at least capBytes, reusing
// a recycled one when possible. The caller owns it until it is handed to
// a fabric via Send; the fabric's Done (or the transport's ack-trim)
// returns it with PutBuf.
func GetBuf(capBytes int) []byte {
	if capBytes < minPooledBytes {
		return make([]byte, 0, capBytes)
	}
	n := poolRound(capBytes)
	if k := class(n); k < poolClasses {
		if b := free[k].take(); b != nil {
			return b
		}
	}
	if v := bufs.Get(); v != nil {
		h := v.(*[]byte)
		b := *h
		*h = nil
		holders.Put(h)
		if cap(b) >= capBytes {
			return b[:0]
		}
		// Wrong size class (a run with different queue capacities left
		// it behind): drop it and let the pool re-fill at this class.
	}
	return make([]byte, 0, n)
}

// PutBuf recycles a buffer previously returned by GetBuf (or any buffer
// whose owner is done with it). The caller must not touch b afterwards:
// the next GetBuf may hand it to another goroutine.
func PutBuf(b []byte) {
	if cap(b) < minPooledBytes {
		return
	}
	if k := class(cap(b)); k < poolClasses && free[k].keep(b) {
		return
	}
	var h *[]byte
	if v := holders.Get(); v != nil {
		h = v.(*[]byte)
	} else {
		h = new([]byte)
	}
	*h = b[:0]
	bufs.Put(h)
}
