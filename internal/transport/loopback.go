package transport

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"gravel/internal/fabric"
	"gravel/internal/timemodel"
	"gravel/internal/wire"
)

// Loopback is an in-process transport that exercises the real framing
// path: every Send encodes a frame, queues its bytes on a bounded
// per-destination wire, and a per-node decoder validates and delivers
// it. Timing is virtual, identical to the channel fabric, so results
// are deterministic — it exists to test the codec and the
// frame-validation path under the full runtime without sockets.
type Loopback struct {
	// Timing, metrics and the receive endpoint are the channel fabric's.
	*fabric.Chan

	wires []chan onWire // one bounded queue per destination

	decoders sync.WaitGroup
	closed   atomic.Bool
}

// onWire is an encoded frame and the records its sender counted
// departed, which a dropped frame's header may not be fit to tell.
type onWire struct {
	raw     []byte
	records int
}

// NewLoopback creates a loopback transport over the given clocks with
// a single resolver bank.
func NewLoopback(params *timemodel.Params, clocks []*timemodel.Clocks) *Loopback {
	return NewLoopbackBanked(params, clocks, 1)
}

// NewLoopbackBanked creates a loopback transport whose decoders demux
// each validated frame into per-bank sub-packets (0 means 1 bank; must
// be a power of two, max fabric.MaxResolverBanks).
func NewLoopbackBanked(params *timemodel.Params, clocks []*timemodel.Clocks, banks int) *Loopback {
	l := &Loopback{Chan: fabric.NewBanked(params, clocks, banks)}
	l.wires = make([]chan onWire, l.Nodes())
	for i := range l.wires {
		l.wires[i] = make(chan onWire, cap(l.Inbox(i))) // as deep as the inboxes behind it
	}
	l.decoders.Add(len(l.wires))
	for i := range l.wires {
		go l.decode(i)
	}
	return l
}

// Send implements fabric.Fabric.
func (l *Loopback) Send(from, to int, buf []byte, msgs int) {
	// A bypassed node-local packet skips the framing round trip
	// entirely. The loopback codec is faithful (encode/decode
	// round-trips bit-exactly), so skipping it for self traffic cannot
	// change results — only wall time.
	if l.Depart(fabric.Packet{From: from, To: to, Buf: buf, Msgs: msgs}) {
		return
	}
	f := frame{typ: frameData, from: from, to: to, msgs: msgs, payload: buf}
	// Encode into a pooled wire buffer; the encode copies the payload,
	// so the caller's buffer recycles immediately (Send owns it).
	raw := appendFrame(wire.GetBuf(headerBytes+len(buf)), &f)
	wire.PutBuf(buf)
	l.wires[to] <- onWire{raw, fabric.Records(msgs)}
}

// decode is node's wire-side decoder: it turns validated frames into
// inbox packets, dropping (counting, and retiring the records of)
// anything malformed. The frame struct and readers are reused across
// packets; the decoded payload is a fresh pooled buffer (the raw
// encoding recycles as soon as it is parsed), so one buffer never backs
// two packets.
func (l *Loopback) decode(node int) {
	defer l.decoders.Done()
	var (
		f  frame
		rd bytes.Reader
		br = bufio.NewReaderSize(&rd, 64<<10)
	)
	for w := range l.wires[node] {
		rd.Reset(w.raw)
		br.Reset(&rd)
		err := readFrameInto(br, &f)
		if err == nil && br.Buffered() > 0 {
			err = fmt.Errorf("transport: %d trailing bytes after frame", br.Buffered())
		}
		wire.PutBuf(w.raw)
		switch {
		case errors.Is(err, errCorruptPayload):
			l.CorruptFrames.Add(1)
		case err != nil, wire.CheckBuf(f.payload) != nil:
			l.Malformed.Add(1)
		default:
			// Inboxes close only after every decoder has exited, so the
			// push cannot fail.
			l.Deliver(fabric.Packet{From: f.from, To: node, Buf: f.payload, Msgs: f.msgs})
			continue
		}
		l.Retire(node, w.records)
	}
}

// Close drains the decoders and closes every inbox.
func (l *Loopback) Close() {
	if !l.closed.CompareAndSwap(false, true) {
		return
	}
	for _, w := range l.wires {
		close(w)
	}
	l.decoders.Wait()
	l.Chan.Close()
}

var _ fabric.Fabric = (*Loopback)(nil)
