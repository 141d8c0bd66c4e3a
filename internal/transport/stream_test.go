package transport

import (
	"testing"
)

// simConn is one connection of the scripted link: an identity the
// receive half can retire.
type simConn struct{ closed bool }

func (c *simConn) Close() error { c.closed = true; return nil }

// wireFrame is a data frame's bytes in flight: what was encoded at
// transmit time, on which connection.
type wireFrame struct {
	conn    *simConn
	seq, id uint64
}

type wireAck struct {
	conn *simConn
	seq  uint64
}

// streamSim drives a sendStream and a recvStream against each other
// the way sender.run and serveConn do, with the connection replaced by
// two slices the schedule can edit. No socket, no goroutine: every step
// is a method call, so a schedule is a replayable script.
type streamSim struct {
	t    *testing.T
	send sendStream
	recv recvStream

	conn   *simConn    // the sender's connection; closed = it will notice and redial
	data   []wireFrame // sender → receiver, arrival order
	acks   []wireAck   // receiver → sender
	staged uint64      // payload ids handed to the stream so far

	delivered []uint64 // payload ids in delivery order
	recycled  int
	retired   int // frames that arrived on a superseded connection
	dups      int
}

func newStreamSim(t *testing.T) *streamSim {
	s := &streamSim{t: t}
	s.reconnect()
	return s
}

// check holds after every step: the window is bounded, ascending, and
// holds only live frames.
func (s *streamSim) check() {
	s.t.Helper()
	w := s.send.replay()
	if len(w) > sendWindowFrames {
		s.t.Fatalf("window holds %d frames, bound is %d", len(w), sendWindowFrames)
	}
	if int64(len(w)) != s.send.unacked.Load() || s.send.idle() != (len(w) == 0) {
		s.t.Fatalf("unacked count %d disagrees with a %d-frame window", s.send.unacked.Load(), len(w))
	}
	for i, f := range w {
		if f.typ == 0 || f.payload == nil {
			s.t.Fatalf("window frame seq %d was recycled while still unacknowledged", f.seq)
		}
		if i > 0 && f.seq != w[i-1].seq+1 {
			s.t.Fatalf("window not contiguous: seq %d after %d", f.seq, w[i-1].seq)
		}
	}
}

func (s *streamSim) transmit(f *frame) {
	s.data = append(s.data, wireFrame{conn: s.conn, seq: f.seq, id: uint64(f.msgs)})
}

// stage admits up to n fresh frames and transmits them, stopping at a
// full window like the writer loop. It returns how many it admitted.
func (s *streamSim) stage(n int) int {
	admitted := 0
	for ; admitted < n && !s.send.full(); admitted++ {
		f := &frame{typ: frameData, from: 0, to: 1, msgs: int(s.staged), payload: []byte{byte(s.staged)}}
		s.staged++
		s.send.admit(f)
		s.transmit(f)
	}
	s.check()
	return admitted
}

// ack feeds the send half one cumulative ack and checks the recycle
// rule: exactly the frames it covers leave the window, each recycled
// now (putFrame itself panics on a second recycle).
func (s *streamSim) ack(seq uint64) {
	s.t.Helper()
	before := append([]*frame(nil), s.send.replay()...)
	covered := 0
	for _, f := range before {
		if f.seq <= seq {
			covered++
		}
	}
	s.send.ack(seq)
	for i, f := range before {
		if gone := f.typ == 0 && f.payload == nil; gone != (i < covered) {
			s.t.Fatalf("ack %d: frame %d of the window recycled=%v, want %v", seq, i, gone, i < covered)
		}
	}
	s.recycled += covered
	s.check()
}

// reconnect is connect+handshake: a new connection attaches (retiring
// the old one), its resume point trims the window, the rest is
// replayed. Frames of the old connection already in flight stay in
// flight, as they would in the old handler's reader.
func (s *streamSim) reconnect() {
	if s.conn != nil {
		s.conn.closed = true
	}
	s.conn = &simConn{}
	s.ack(s.recv.attach(s.conn))
	for _, f := range s.send.replay() {
		s.transmit(f)
	}
}

// pump is serveConn's loop over everything in flight.
func (s *streamSim) pump() {
	data := s.data
	s.data = nil
	for _, w := range data {
		deliver := func() bool {
			if w.conn != s.conn {
				s.t.Fatalf("superseded connection delivered seq %d", w.seq)
			}
			s.delivered = append(s.delivered, w.id)
			return true
		}
		switch s.recv.accept(w.conn, w.seq, deliver) {
		case frameDelivered:
			s.acks = append(s.acks, wireAck{w.conn, w.seq})
		case frameDuplicate:
			s.dups++
			s.acks = append(s.acks, wireAck{w.conn, w.seq})
		case frameGap:
			w.conn.closed = true // poisoned: serveConn returns, the conn closes
			s.recv.detach(w.conn)
		case frameRetired:
			s.retired++
		}
	}
}

// drain hands the sender every ack that arrived on its connection.
func (s *streamSim) drain() {
	acks := s.acks
	s.acks = nil
	for _, a := range acks {
		if a.conn == s.conn && !a.conn.closed {
			s.ack(a.seq)
		}
	}
}

// settle runs the protocol to completion with no further faults:
// deliver, acknowledge, redial poisoned connections, and let the
// tail-loss watchdog tick.
func (s *streamSim) settle() {
	s.t.Helper()
	for round := 0; !s.send.idle() || len(s.data) > 0; round++ {
		if round > 100 {
			s.t.Fatalf("stream did not settle: %d unacked, %d in flight", len(s.send.replay()), len(s.data))
		}
		s.pump()
		s.drain()
		if s.conn.closed || s.send.stalled() {
			s.reconnect()
		}
	}
}

// finish settles and checks the contract: every staged payload
// delivered exactly once, in order, and every frame recycled exactly
// once.
func (s *streamSim) finish() {
	s.t.Helper()
	s.settle()
	if uint64(len(s.delivered)) != s.staged {
		s.t.Fatalf("delivered %d payloads of %d staged: %v", len(s.delivered), s.staged, s.delivered)
	}
	for i, id := range s.delivered {
		if id != uint64(i) {
			s.t.Fatalf("delivery %d is payload %d: not in-order exactly-once (%v)", i, id, s.delivered)
		}
	}
	if uint64(s.recycled) != s.staged {
		s.t.Fatalf("recycled %d frames of %d staged", s.recycled, s.staged)
	}
}

// TestStreamExactlyOnce drives the reliability pair through scripted
// fault schedules. Each one ends in finish, so each asserts in-order
// exactly-once delivery, the window bound, and recycle-on-trim-only.
func TestStreamExactlyOnce(t *testing.T) {
	schedules := map[string]func(s *streamSim){
		"clean": func(s *streamSim) {
			s.stage(10)
		},
		"tail loss": func(s *streamSim) {
			// The last frame vanishes with no successor to expose a gap.
			s.stage(3)
			s.data = s.data[:2]
			s.pump()
			s.drain()
			if s.send.stalled() {
				s.t.Fatal("stalled on the first poll: no grace period")
			}
			if !s.send.stalled() {
				s.t.Fatal("head unmoved for a full interval but not reported stalled")
			}
			s.reconnect()
			if len(s.data) != 1 || s.data[0].seq != 3 {
				s.t.Fatalf("replay after tail loss = %+v, want seq 3 alone", s.data)
			}
			if s.send.stalled() {
				s.t.Fatal("no fresh grace period after the stall was reported")
			}
		},
		"mid-stream drop, reconnect replay": func(s *streamSim) {
			s.stage(5)
			s.data = append(s.data[:1], s.data[2:]...) // lose seq 2
			s.pump()
			if !s.conn.closed {
				s.t.Fatal("gap did not poison the connection")
			}
			if len(s.delivered) != 1 {
				s.t.Fatalf("delivered %v past a gap", s.delivered)
			}
			s.stage(2) // more traffic arrives while the sender has not noticed
			s.reconnect()
			if s.data[len(s.data)-6].seq != 2 {
				s.t.Fatalf("replay does not start at the resume point: %+v", s.data)
			}
		},
		"reorder": func(s *streamSim) {
			s.stage(4)
			s.data[1], s.data[2] = s.data[2], s.data[1]
		},
		"duplicate after reconnect": func(s *streamSim) {
			// Acks lost and the connection severed; the replay is itself
			// duplicated in flight, and an old copy of a delivered frame
			// shows up on the new connection.
			s.stage(4)
			s.pump()
			s.acks = nil
			s.stage(2)
			s.data = nil
			s.reconnect()
			s.data = append(s.data, s.data...)
			s.data = append(s.data, wireFrame{conn: s.conn, seq: 1, id: 0})
			s.pump()
			if s.dups != 3 {
				s.t.Fatalf("%d duplicate verdicts, want 3", s.dups)
			}
		},
		"supersession while frames are buffered": func(s *streamSim) {
			// Four frames sit in the old handler's reader when the peer
			// reconnects; the replay overtakes them.
			s.stage(4)
			old := s.conn
			s.reconnect()
			if !old.closed {
				s.t.Fatal("attach did not close the superseded connection")
			}
			s.pump()
			if s.retired != 4 {
				s.t.Fatalf("%d frames ruled retired, want the 4 buffered on the old connection", s.retired)
			}
		},
		"window bound": func(s *streamSim) {
			if n := s.stage(3 * sendWindowFrames); n != sendWindowFrames {
				s.t.Fatalf("admitted %d frames with no ack, want %d", n, sendWindowFrames)
			}
			s.pump()
			s.acks = s.acks[:100] // a cumulative ack for the first 100 only
			s.drain()
			if n := s.stage(3 * sendWindowFrames); n != 100 {
				s.t.Fatalf("admitted %d frames after 100 were acked, want 100", n)
			}
			s.data = nil // and the refill is lost whole
		},
	}
	for name, run := range schedules {
		t.Run(name, func(t *testing.T) {
			s := newStreamSim(t)
			run(s)
			s.finish()
		})
	}
}

// TestSendWindowZeroAllocs: an ack that leaves survivors moves them to
// the front of the window, so a steady admit/ack cycle never regrows
// it.
func TestSendWindowZeroAllocs(t *testing.T) {
	var s sendStream
	cycle := func() {
		for range 2 {
			f := getFrame()
			f.typ = frameData
			s.admit(f)
		}
		s.ack(s.nextSeq - 1) // one frame stays in flight
	}
	for range 10 {
		cycle()
	}
	if n := testing.AllocsPerRun(500, cycle); n != 0 {
		t.Errorf("a steady admit/ack cycle allocates %.2f objects, want 0", n)
	}
	if len(s.window) != 1 || s.window[0].seq != s.nextSeq {
		t.Errorf("window %d frames after the cycles, want the last one only", len(s.window))
	}
}
