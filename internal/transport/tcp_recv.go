package transport

import (
	"bufio"
	"errors"
	"net"
	"time"

	"gravel/internal/fabric"
	"gravel/internal/rt"
	"gravel/internal/wire"
)

// acceptLoop admits peer connections until the listener closes.
func (t *TCP) acceptLoop() {
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return
		}
		t.connsMu.Lock()
		t.conns[conn] = struct{}{}
		t.connsMu.Unlock()
		t.handlers.Add(1)
		go t.serveConn(conn)
	}
}

// serveConn is the connection lifecycle of one inbound stream: HELLO
// and the generation gate, then frames — validated, ruled on by the
// peer's recvStream, delivered (data) or filed in the tally (ballots)
// or the open collectives (contributions), acknowledged — until FIN or
// error. Any malformed frame, and a ballot or contribution that is
// refused, poisons the connection; the peer reconnects and replays
// from the last acknowledged frame.
func (t *TCP) serveConn(conn net.Conn) {
	defer t.handlers.Done()
	defer func() {
		t.connsMu.Lock()
		delete(t.conns, conn)
		t.connsMu.Unlock()
		conn.Close()
	}()
	br := bufio.NewReaderSize(conn, 64<<10)

	conn.SetReadDeadline(time.Now().Add(handshakeTimeout))
	var hello frame
	if err := readFrameInto(br, &hello); err != nil || hello.typ != frameHello || hello.to != t.self ||
		hello.from < 0 || hello.from >= t.n || hello.from == t.self {
		t.Malformed.Add(1)
		return
	}
	// Generation gate: a hello stamped with another membership
	// generation is from an evicted (or not-yet-evicted stale) peer.
	// Reply frameEvict carrying our generation so the sender fails with
	// a typed StaleGenerationError instead of retrying forever, and
	// never let its frames near the dedup/deliver path.
	if hello.gen != t.wireGen() {
		writeFrame(conn, &frame{typ: frameEvict, from: t.self, to: hello.from, seq: uint64(t.gen), gen: t.wireGen()})
		return
	}
	conn.SetReadDeadline(time.Time{})
	from := hello.from
	rs := &t.recv[from]
	resume := rs.attach(conn)
	defer rs.detach(conn)
	// Control replies (acks, fin-ack) reuse one encode scratch instead
	// of allocating per frame; one goroutine owns this connection's
	// writes, so no lock is needed.
	var ctlBuf []byte
	writeCtl := func(typ frameType, seq uint64) error {
		ctlBuf = appendFrame(ctlBuf[:0], &frame{typ: typ, from: t.self, to: from, seq: seq})
		_, err := conn.Write(ctlBuf)
		return err
	}
	if err := writeCtl(frameAck, resume); err != nil {
		return
	}

	// The frame struct is reused across reads; its payload is a fresh
	// pooled buffer per data frame, owned by the inbox packet once
	// delivered (Done recycles it) and recycled here on the drop paths
	// that keep the connection alive.
	var f frame
	for {
		if err := readFrameInto(br, &f); err != nil {
			if errors.Is(err, errCorruptPayload) {
				// In-flight corruption, caught by the frame CRC. Count it,
				// re-acknowledge the resume point as an explicit retransmit
				// request, and poison the connection: the sender reconnects
				// and replays everything after the ack, so corruption costs
				// a round trip, never data.
				t.CorruptFrames.Add(1)
				writeCtl(frameAck, rs.cumAck())
			}
			return
		}
		switch f.typ {
		case frameFin:
			writeCtl(frameFinAck, 0)
			return
		case framePing:
			// Peer heartbeat: answer with the cumulative ack so liveness
			// and ack progress share one signal.
			if writeCtl(frameAck, rs.cumAck()) != nil {
				return
			}
		case frameData, frameVote, frameColl:
			inline := f.typ.inline()
			if f.from != from || f.to != t.self ||
				f.gen != hello.gen || // generation drift mid-stream: reject, not misdeliver
				inline && len(f.payload) != ballotBytes ||
				f.typ == frameColl && readContribution(f.payload).op() > rt.OpMax ||
				!inline && wire.CheckBuf(f.payload) != nil {
				t.Malformed.Add(1)
				return
			}
			refused := false
			switch rs.accept(conn, f.seq, func() bool {
				if !inline {
					return t.deliver(&f)
				}
				// A ballot or contribution no working peer sends is refused.
				refused = f.typ == frameVote && !t.tally.file(from, readBallot(f.payload)) ||
					f.typ == frameColl && !t.colls.file(from, readContribution(f.payload))
				t.Progress().Wake()
				return !refused
			}) {
			case frameDuplicate:
				// Nothing will ever apply this payload: recycle it.
				wire.PutBuf(f.payload)
				f.payload = nil
			case frameGap:
				t.Malformed.Add(1)
				return
			case frameRetired:
				if refused {
					t.Malformed.Add(1)
				}
				return
			}
			if writeCtl(frameAck, f.seq) != nil {
				return
			}
		default:
			t.Malformed.Add(1)
			return
		}
	}
}

// deliver hands one validated data frame to the endpoint, charging
// receive-side wire time; its records are retired where the endpoint
// retires them. It reports false if the inboxes closed underneath it
// during shutdown: the frame is unacked, so a surviving peer would
// retransmit — by protocol it is post-quiescence and carries nothing
// the run still needs.
func (t *TCP) deliver(f *frame) bool {
	t.clocks[t.self].AddWireRecv(t.params.WireNs(len(f.payload)))
	t.arrived.Add(int64(fabric.Records(f.msgs)))
	return t.Deliver(fabric.Packet{From: f.from, To: t.self, Buf: f.payload, Msgs: f.msgs})
}
