package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"

	"gravel/internal/wire"
)

// errCorruptPayload marks a frame whose header parsed but whose payload
// failed the CRC — in-flight corruption rather than a protocol
// violation. Receivers count these (Stats.Transport.CorruptFrames) and force a
// retransmit instead of dropping the loss silently.
var errCorruptPayload = errors.New("transport: frame CRC mismatch")

// Wire framing: every unit on a transport connection is one frame — a
// fixed 36-byte little-endian header followed by an optional payload.
//
//	offset  size  field
//	0       4     magic "GRVL"
//	4       1     version (2)
//	5       1     type
//	6       2     membership generation (low 16 bits)
//	8       4     from node
//	12      4     to node
//	16      4     message count
//	20      4     payload length
//	24      8     sequence number
//	32      4     CRC-32 (IEEE) of the payload
//
// A data payload is exactly the wire-package per-node queue encoding, a
// vote's is one ballot (vote.go) and a contribution's one contribution
// (collectives.go); the other control frames carry no payload and reuse
// the seq field (hello: stream resume point; ack: cumulative
// acknowledged seq).
const (
	frameMagic      = 0x4C565247 // "GRVL"
	frameVersion    = 2
	headerBytes     = 36
	maxFramePayload = 1 << 24
)

type frameType uint8

const (
	// frameData carries one per-node queue (wire.MsgWireBytes records).
	frameData frameType = iota + 1
	// frameHello opens a sender→receiver stream; seq echoes the highest
	// sequence number the sender believes was delivered, and the
	// receiver's helloAck reply carries its own cumulative count so the
	// sender can trim and retransmit.
	frameHello
	// frameAck acknowledges every data frame with seq ≤ its seq field.
	frameAck
	// frameFin asks the receiver to drain and confirm with frameFinAck;
	// the graceful half of the close handshake.
	frameFin
	frameFinAck
	// framePing is a sender→receiver heartbeat; the receiver answers
	// with a cumulative frameAck, so liveness and ack progress share one
	// signal. Pings carry no payload and no sequence number.
	framePing
	// frameEvict rejects a stale-generation hello: the receiver is on a
	// newer membership generation than the sender's stamp, so instead of
	// a helloAck it replies frameEvict (seq carries the receiver's
	// generation) and drops the connection. The sender surfaces a typed
	// *StaleGenerationError rather than retrying forever.
	frameEvict
	// frameVote carries one ballot of the step vote (vote.go). It is
	// sequenced in the stream like a data frame, so it is replayed and
	// deduplicated across reconnects, but it carries no records.
	frameVote
	// frameColl carries one member's contribution to a host collective
	// (collectives.go), sequenced like a ballot and owed like data.
	frameColl
)

func (t frameType) valid() bool { return t >= frameData && t <= frameColl }

// inline reports whether the frame type's payload is four words in
// frame.inline (a ballot or a contribution) rather than records.
func (t frameType) inline() bool { return t == frameVote || t == frameColl }

// frame is one transport protocol unit.
type frame struct {
	typ      frameType
	from, to int
	msgs     int
	seq      uint64
	gen      uint16 // membership generation stamp
	payload  []byte

	// inline holds a vote's or a contribution's payload, so neither
	// allocates on either side; payload points into it (wire.PutBuf
	// ignores a buffer that small).
	inline [ballotBytes]byte

	// sentAt is the flight recorder's timestamp of the frame's first
	// transmission (0 when tracing was off); the cumulative ack that
	// trims the frame closes the flush→ack RTT sample.
	sentAt int64
}

// appendFrame encodes f onto dst and returns the extended slice. It
// panics on a payload over maxFramePayload: the receiver rejects such
// a frame as malformed, so emitting it could only poison the stream
// (and its retransmit window) — oversized buffers must fail at the
// source.
func appendFrame(dst []byte, f *frame) []byte {
	if len(f.payload) > maxFramePayload {
		panic(fmt.Sprintf("transport: %d-byte frame payload exceeds the %d-byte limit", len(f.payload), maxFramePayload))
	}
	var h [headerBytes]byte
	binary.LittleEndian.PutUint32(h[0:4], frameMagic)
	h[4] = frameVersion
	h[5] = byte(f.typ)
	binary.LittleEndian.PutUint16(h[6:8], f.gen)
	binary.LittleEndian.PutUint32(h[8:12], uint32(f.from))
	binary.LittleEndian.PutUint32(h[12:16], uint32(f.to))
	binary.LittleEndian.PutUint32(h[16:20], uint32(f.msgs))
	binary.LittleEndian.PutUint32(h[20:24], uint32(len(f.payload)))
	binary.LittleEndian.PutUint64(h[24:32], f.seq)
	binary.LittleEndian.PutUint32(h[32:36], crc32.ChecksumIEEE(f.payload))
	dst = append(dst, h[:]...)
	return append(dst, f.payload...)
}

// writeFrame writes one encoded frame to w.
func writeFrame(w io.Writer, f *frame) error {
	buf := appendFrame(make([]byte, 0, headerBytes+len(f.payload)), f)
	_, err := w.Write(buf)
	return err
}

// framePool recycles frame structs on the transport's send path, where
// every flushed per-node queue once allocated one. Frames are taken in
// TCP.send and returned when the ack trims them out of the retransmit
// window; drop paths (a failed transport discarding its queue) simply
// leak them to the GC, which is safe but unpooled.
var framePool = sync.Pool{New: func() any { return new(frame) }}

// getFrame returns a zeroed frame from the pool.
func getFrame() *frame {
	f := framePool.Get().(*frame)
	*f = frame{}
	return f
}

// putFrame recycles a frame and its payload buffer. The caller must be
// the frame's sole owner (for window frames: only after the cumulative
// ack proves no retransmit can ever replay it). A recycled frame has no
// type until getFrame's caller gives it one, so recycling one twice —
// which would hand one struct to two senders — panics here instead.
func putFrame(f *frame) {
	if f.typ == 0 {
		panic("transport: frame recycled twice")
	}
	wire.PutBuf(f.payload)
	f.typ, f.payload = 0, nil
	framePool.Put(f)
}

// readFrameInto reads and validates one frame from a stream into f,
// decoding the header in place in r's buffer and drawing the payload
// buffer from the wire packet pool (delivery hands it to the inbox
// packet, whose Done recycles it). Malformed input returns an error and
// poisons the stream (the caller must drop the connection); it never
// panics. On error f holds no pooled buffer.
func readFrameInto(r *bufio.Reader, f *frame) error {
	h, err := r.Peek(headerBytes)
	if err != nil {
		if err == io.EOF && len(h) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return err
	}
	if m := binary.LittleEndian.Uint32(h[0:4]); m != frameMagic {
		return fmt.Errorf("transport: bad frame magic %#x", m)
	}
	if h[4] != frameVersion {
		return fmt.Errorf("transport: unsupported frame version %d", h[4])
	}
	typ := frameType(h[5])
	if !typ.valid() {
		return fmt.Errorf("transport: unknown frame type %d", h[5])
	}
	plen := binary.LittleEndian.Uint32(h[20:24])
	if plen > maxFramePayload {
		return fmt.Errorf("transport: frame payload %d exceeds limit %d", plen, maxFramePayload)
	}
	*f = frame{
		typ:  typ,
		from: int(binary.LittleEndian.Uint32(h[8:12])),
		to:   int(binary.LittleEndian.Uint32(h[12:16])),
		msgs: int(binary.LittleEndian.Uint32(h[16:20])),
		seq:  binary.LittleEndian.Uint64(h[24:32]),
		gen:  binary.LittleEndian.Uint16(h[6:8]),
	}
	crc := binary.LittleEndian.Uint32(h[32:36]) // h is r's buffer: the payload read overwrites it
	r.Discard(headerBytes)
	switch {
	case typ.inline() && plen == ballotBytes:
		f.payload = f.inline[:]
	case plen > 0:
		f.payload = wire.GetBuf(int(plen))[:plen]
	}
	if plen > 0 {
		if _, err := io.ReadFull(r, f.payload); err != nil {
			wire.PutBuf(f.payload)
			f.payload = nil
			return err
		}
	}
	if got := crc32.ChecksumIEEE(f.payload); got != crc {
		wire.PutBuf(f.payload)
		f.payload = nil
		return fmt.Errorf("%w (got %#x want %#x)", errCorruptPayload, got, crc)
	}
	return nil
}
