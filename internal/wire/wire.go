// Package wire defines Gravel's message encoding: the row layout used in
// producer/consumer queue slots (§4.2: first row command, second row
// destination, subsequent rows arguments) and the byte encoding used in
// per-node queues sent over the network.
package wire

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// Op is a network operation code (§6: Gravel supports PUT, atomic
// increment, and a primitive active message API).
type Op uint8

const (
	// OpPut stores a value into the partitioned global address space.
	OpPut Op = iota + 1
	// OpInc atomically adds a value in the PGAS; like every atomic it is
	// serialized through the destination's network thread.
	OpInc
	// OpAM invokes a registered active-message handler at the
	// destination.
	OpAM
	// OpPutSignal stores a value into the PGAS and then atomically
	// increments a signal word co-located at the same destination, as
	// one ordered wire command (NVSHMEM-style signalled put). The
	// signal array and cell travel packed in the command word's high
	// bits (PackSigCmd); a waiter that observes the incremented signal
	// is guaranteed to observe the data store.
	OpPutSignal
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case OpPut:
		return "PUT"
	case OpInc:
		return "INC"
	case OpAM:
		return "AM"
	case OpPutSignal:
		return "PUT_SIGNAL"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// Queue-slot row layout: each message occupies one column of a 4-row
// slot, 32 bytes per message (§4.2).
const (
	// RowCmd packs op, handler and array ID.
	RowCmd = 0
	// RowDest holds the destination node.
	RowDest = 1
	// RowA holds the first argument (PGAS index, or AM argument 0).
	RowA = 2
	// RowB holds the second argument (value, or AM argument 1).
	RowB = 3
	// SlotRows is the number of rows per queue slot.
	SlotRows = 4
)

// PackCmd builds the RowCmd word.
func PackCmd(op Op, handler uint8, arr uint16) uint64 {
	return uint64(op) | uint64(handler)<<8 | uint64(arr)<<16
}

// UnpackCmd splits a RowCmd word.
func UnpackCmd(w uint64) (op Op, handler uint8, arr uint16) {
	return Op(w), uint8(w >> 8), uint16(w >> 16)
}

// MaxSigIdx bounds the signal-cell index a PUT_SIGNAL can address: the
// index shares the command word with the op, data-array and signal-array
// IDs, leaving 24 bits. Signal arrays are small flag/counter regions, so
// 16M cells is far beyond any realistic use.
const MaxSigIdx = 1 << 24

// PackSigCmd builds the RowCmd word of a PUT_SIGNAL: the data array in
// the usual position, the signal array in bits 32-47, and the signal
// cell index split across the handler byte (low 8 bits) and bits 48-63.
// The record's a/b words stay free for the data index and value, so a
// signalled put is a normal 24-byte wire record.
func PackSigCmd(dataArr, sigArr uint16, sigIdx uint32) uint64 {
	if sigIdx >= MaxSigIdx {
		panic(fmt.Sprintf("wire: signal index %d exceeds %d", sigIdx, MaxSigIdx))
	}
	return uint64(OpPutSignal) | uint64(sigIdx&0xff)<<8 | uint64(dataArr)<<16 |
		uint64(sigArr)<<32 | uint64(sigIdx>>8)<<48
}

// UnpackSigCmd splits a PUT_SIGNAL RowCmd word.
func UnpackSigCmd(w uint64) (dataArr, sigArr uint16, sigIdx uint32) {
	return uint16(w >> 16), uint16(w >> 32), uint32(w>>8)&0xff | uint32(w>>48)<<8
}

// MsgWireBytes is the encoded size of one message inside a per-node
// queue. The destination is implicit (the whole queue targets one
// node), so only the command word and two arguments travel.
const MsgWireBytes = 24

// Builder accumulates messages bound for a single destination into a
// per-node queue buffer of fixed capacity (§6: 64 kB by default).
type Builder struct {
	dest int
	cap  int
	buf  []byte
	msgs int
	// Padded to one 64-byte cache line: each node's aggregator thread
	// writes its own builders, and builders of different nodes are
	// allocated side by side, so a shorter struct makes two threads
	// write one line.
	_ [16]byte
}

// NewBuilder creates a builder for the given destination with the given
// byte capacity (rounded down to a whole number of messages, minimum
// one).
func NewBuilder(dest, capBytes int) *Builder {
	n := capBytes / MsgWireBytes
	if n < 1 {
		n = 1
	}
	return &Builder{dest: dest, cap: n * MsgWireBytes, buf: GetBuf(n * MsgWireBytes)}
}

// CheckBuf validates a per-node queue buffer received from an untrusted
// byte stream without applying it: the length must be a whole number of
// records and every op must be known. Transports call this before
// handing a payload to the network thread, so a frame that fails it is
// counted as malformed and dropped with its connection, never
// delivered. What it cannot see (an unallocated array, an unregistered
// AM handler, a cell the receiving node does not own) the resolver
// fails as a typed core.WireDecodeError.
func CheckBuf(buf []byte) error {
	if len(buf)%MsgWireBytes != 0 {
		return fmt.Errorf("wire: buffer length %d not a multiple of %d", len(buf), MsgWireBytes)
	}
	for off := 0; off < len(buf); off += MsgWireBytes {
		op, _, _ := UnpackCmd(binary.LittleEndian.Uint64(buf[off : off+8]))
		switch op {
		case OpPut, OpInc, OpAM, OpPutSignal:
		default:
			return fmt.Errorf("wire: record at offset %d has unknown op %d", off, uint8(op))
		}
	}
	return nil
}

// Dest returns the builder's destination node.
func (b *Builder) Dest() int { return b.dest }

// Msgs returns the number of buffered messages.
func (b *Builder) Msgs() int { return b.msgs }

// Bytes returns the buffered byte count.
func (b *Builder) Bytes() int { return len(b.buf) }

// Empty reports whether no messages are buffered.
func (b *Builder) Empty() bool { return b.msgs == 0 }

// Full reports whether the next Append would overflow.
func (b *Builder) Full() bool { return len(b.buf)+MsgWireBytes > b.cap }

// Append adds one message. The caller must flush when Full.
func (b *Builder) Append(cmd, a, v uint64) {
	if b.Full() {
		panic("wire: Append on full builder")
	}
	n := len(b.buf)
	b.buf = b.buf[:n+MsgWireBytes]
	PutRecord(b.buf[n:], cmd, a, v)
	b.msgs++
}

// PutRecord encodes one per-node queue message record into dst[:MsgWireBytes].
// It is the tree's only record encoder: every writer (the builders,
// AppendRecord, the archive's span writes, the receive-side bank
// scatter) first extends its own buffer inside its capacity — once per
// record or once per run of records — and then stores the three words
// in place. It inlines, so a record costs its caller three stores and
// no call.
func PutRecord(dst []byte, cmd, a, v uint64) {
	_ = dst[MsgWireBytes-1]
	binary.LittleEndian.PutUint64(dst[0:8], cmd)
	binary.LittleEndian.PutUint64(dst[8:16], a)
	binary.LittleEndian.PutUint64(dst[16:24], v)
}

// AppendRecord appends one encoded per-node queue message record to buf
// and returns the extended slice, for callers that manage their own
// buffers. A buffer with room is extended in place; one without (nil
// included) grows like append.
func AppendRecord(buf []byte, cmd, a, v uint64) []byte {
	n := len(buf)
	buf = slices.Grow(buf, MsgWireBytes)[:n+MsgWireBytes]
	PutRecord(buf[n:], cmd, a, v)
	return buf
}

// Take returns the current buffer and message count and resets the
// builder with a fresh buffer from the packet pool. The returned slice
// is owned by the caller; handing it to a fabric transfers ownership to
// the packet lifecycle, whose Done recycles it (see GetBuf/PutBuf).
func (b *Builder) Take() (buf []byte, msgs int) {
	buf = b.buf
	msgs = b.msgs
	b.buf = GetBuf(b.cap)
	b.msgs = 0
	return buf, msgs
}

// RecordCount validates an encoded per-node queue buffer and returns the
// number of messages in it. It returns an error if the buffer is not a
// whole number of messages.
func RecordCount(buf []byte) (int, error) {
	if len(buf)%MsgWireBytes != 0 {
		return 0, fmt.Errorf("wire: buffer length %d not a multiple of %d", len(buf), MsgWireBytes)
	}
	return len(buf) / MsgWireBytes, nil
}

// RecordAt returns message i of an encoded per-node queue buffer; i must
// be below the buffer's RecordCount. Together they are the closure-free
// form of Decode, for a receive path that walks records in a plain loop.
func RecordAt(buf []byte, i int) (cmd, a, v uint64) {
	rec := buf[i*MsgWireBytes : i*MsgWireBytes+MsgWireBytes]
	return binary.LittleEndian.Uint64(rec[0:8]),
		binary.LittleEndian.Uint64(rec[8:16]),
		binary.LittleEndian.Uint64(rec[16:24])
}

// Decode iterates over the messages in an encoded per-node queue buffer.
// It returns an error if the buffer is not a whole number of messages.
func Decode(buf []byte, fn func(cmd, a, v uint64)) error {
	n, err := RecordCount(buf)
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		fn(RecordAt(buf, i))
	}
	return nil
}
