package transport

import (
	"bufio"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"gravel/internal/obs"
)

// sender is the connection lifecycle of one outbound stream: a bounded
// queue of staged frames and a writer goroutine that owns the
// connection — dialing, handshaking, replaying the stream's window
// after reconnects, and FINing on shutdown. What is owed to the peer is
// the sendStream's business; this type only moves its frames.
type sender struct {
	t    *TCP
	dest int
	addr string

	queue chan *frame
	stop  chan struct{}
	done  chan struct{}

	// Writer-goroutine-only state: the reliability half and the
	// frame-encode scratch.
	str sendStream
	enc []byte

	// owed counts the data frames and contributions handed to this
	// stream and not yet acknowledged, queued or in the window. Ballots
	// are not owed: a voter must not wait on its own vote.
	owed atomic.Int64

	// lastAck is the unix-nano time of the last proof the peer is alive:
	// construction, a completed handshake, or any received ack (data
	// frames and heartbeat pings are both acknowledged). The suspect
	// check compares silence against it.
	lastAck atomic.Int64

	mu   sync.Mutex
	conn net.Conn // current connection, for dropConn
}

// progress marks the peer alive now.
func (s *sender) progress() { s.lastAck.Store(time.Now().UnixNano()) }

// suspectCheck declares the peer down — failing the whole transport —
// if it has been silent past the suspect timeout. Heartbeat pings keep
// a live, idle peer acking, so sustained silence really means the peer
// (or the path to it) is gone. Disabled (suspect == 0) for hand-built
// senders in tests and when Options.SuspectTimeout < 0.
func (s *sender) suspectCheck() bool {
	suspect := s.t.suspect
	if suspect <= 0 || s.t.closed.Load() {
		return false
	}
	if sil := time.Duration(time.Now().UnixNano() - s.lastAck.Load()); sil > suspect {
		s.t.fail(&PeerDownError{Node: s.dest, Detector: "sender", Silence: sil})
		return true
	}
	return false
}

// idle reports whether no owed frame is staged or awaiting
// acknowledgment.
func (s *sender) idle() bool { return s.owed.Load() == 0 }

// acked trims the window up to the peer's cumulative ack; the ack that
// settles the last frame owed may be what a Quiet waiter is waiting
// for.
func (s *sender) acked(seq uint64) {
	if n := s.str.ack(seq); n > 0 && s.owed.Add(-int64(n)) == 0 {
		s.t.Progress().Wake()
	}
}

// write encodes f into the sender's scratch and writes it to conn in
// one Write. The aggregator already batches records into whole
// per-node queues (§3.4), so the writer adds no batching of its own,
// and the fault injector decides per Write, so a Write must be one
// whole frame. Bytes are copied out of the frame, so the window's
// ownership is unaffected.
func (s *sender) write(conn net.Conn, f *frame) error {
	s.enc = appendFrame(s.enc[:0], f)
	_, err := conn.Write(s.enc)
	return err
}

func (s *sender) setConn(c net.Conn) {
	s.mu.Lock()
	s.conn = c
	s.mu.Unlock()
}

// dropConn force-closes the current connection (Kill, fault injection).
func (s *sender) dropConn() {
	s.mu.Lock()
	c := s.conn
	s.mu.Unlock()
	if c != nil {
		c.Close()
	}
}

// shutdown drains and stops the writer.
func (s *sender) shutdown() {
	close(s.stop)
	<-s.done
}

// redial is the one dial-retry loop (peer streams and the coordinator):
// it calls try until try reports that it is finished — connected, or
// out of reasons to keep trying — sleeping between attempts for a
// backoff that doubles from initial until it passes max, plus up to as
// much again in jitter. sleep reports true to abandon the loop.
// Nonpositive bounds take the transport's defaults.
func redial(initial, max time.Duration, try func() bool, sleep func(time.Duration) (abandon bool)) {
	if initial <= 0 {
		initial = backoffInitial
	}
	if max <= 0 {
		max = backoffMax
	}
	for backoff := initial; !try(); {
		if sleep(backoff + time.Duration(rand.Int63n(int64(backoff)))) {
			return
		}
		if backoff < max {
			backoff *= 2
		}
	}
}

// link is one established connection of the stream: the conn and the
// channels its ack reader feeds.
type link struct {
	conn net.Conn
	acks chan uint64
	errs chan error
}

// connect redials until a handshake succeeds, the transport fails (the
// peer is suspect, or evicted us), shutdown begins (stop closes —
// stopped=true so the caller can start its bounded drain), or the drain
// deadline fires. A nil link with stopped=false means give up.
func (s *sender) connect(stop <-chan struct{}, abort <-chan time.Time, attempted *bool) (l *link, stopped bool) {
	redial(backoffInitial, backoffMax, func() bool {
		if !s.t.inj.LinkBlocked(s.t.self, s.dest) { // cut links fail fast into backoff
			if conn, err := net.DialTimeout("tcp", s.addr, dialTimeout); err == nil {
				if l = s.handshake(s.t.inj.WrapConn(conn, s.t.self, s.dest)); l != nil {
					if *attempted {
						s.t.Reconnects.Add(1)
						if obs.Enabled() {
							obs.Emit(obs.KReconnect, s.t.self, int64(s.dest), 0, "")
						}
					}
					*attempted = true
					return true
				}
			}
		}
		s.t.Retries.Add(1)
		return s.suspectCheck() || s.t.Err() != nil
	}, func(d time.Duration) bool {
		select {
		case <-time.After(d):
			return false
		case <-stop:
			stopped = true
		case <-abort:
		case <-s.t.killed:
		}
		return true
	})
	return l, stopped
}

// handshake sends HELLO, consumes the receiver's resume point (which
// trims the window like any cumulative ack), replays whatever remains,
// and starts the ack reader. It closes conn and returns nil on failure.
func (s *sender) handshake(conn net.Conn) *link {
	t := s.t
	if s.write(conn, &frame{typ: frameHello, from: t.self, to: s.dest, gen: t.wireGen()}) != nil {
		conn.Close()
		return nil
	}
	br := bufio.NewReaderSize(conn, 16<<10)
	conn.SetReadDeadline(time.Now().Add(handshakeTimeout))
	var ack frame
	err := readFrameInto(br, &ack)
	if err == nil && ack.typ == frameEvict {
		// The receiver is on another membership generation: this process
		// was evicted. Fail the whole transport with the typed error —
		// retrying the handshake could never succeed.
		conn.Close()
		t.fail(&StaleGenerationError{Have: t.gen, Want: uint32(ack.seq), Source: "peer"})
		return nil
	}
	if err != nil || ack.typ != frameAck {
		conn.Close()
		return nil
	}
	conn.SetReadDeadline(time.Time{})
	s.acked(ack.seq)
	replay := s.str.replay()
	if len(replay) > 0 && obs.Enabled() {
		obs.Emit(obs.KRetransmit, t.self, int64(s.dest), int64(len(replay)), "")
	}
	for _, f := range replay {
		if s.write(conn, f) != nil {
			conn.Close()
			return nil
		}
	}
	l := &link{conn: conn, acks: make(chan uint64, sendWindowFrames), errs: make(chan error, 1)}
	go func() {
		var f frame // reused: acks carry no payload
		for {
			if err := readFrameInto(br, &f); err != nil {
				l.errs <- err
				return
			}
			switch f.typ {
			case frameAck:
				// Progress is stamped at arrival, not when the writer loop
				// drains the channel: an injected stall blocks the writer,
				// and acks landing meanwhile must still prove liveness.
				s.progress()
				l.acks <- f.seq
			case frameFinAck:
				l.acks <- finAckMark
				return
			default:
				l.errs <- fmt.Errorf("transport: unexpected %d frame on ack stream", f.typ)
				return
			}
		}
	}()
	s.setConn(conn)
	s.progress()
	return l
}

// run is the writer loop.
func (s *sender) run() {
	defer close(s.done)
	var (
		l         *link
		attempted bool
		draining  bool
		deadline  <-chan time.Time
		stop      = s.stop
	)
	disconnect := func() {
		if l != nil {
			l.conn.Close()
			s.setConn(nil)
			l = nil
		}
	}
	defer disconnect()
	var drainTimer *time.Timer
	defer func() {
		if drainTimer != nil {
			drainTimer.Stop()
		}
	}()
	beginDrain := func() {
		stop = nil
		draining = true
		drainTimer = time.NewTimer(drainTimeout)
		deadline = drainTimer.C
	}
	// With failure detection on, ping the peer every heartbeat interval
	// (the receiver answers with a cumulative ack) and check for suspect
	// silence on the same tick. A nil channel — detection disabled —
	// never fires.
	var heartbeat <-chan time.Time
	if s.t.suspect > 0 && s.t.heartbeat > 0 {
		hb := time.NewTicker(s.t.heartbeat)
		defer hb.Stop()
		heartbeat = hb.C
	}
	// Tail-loss watchdog: see sendStream.stalled.
	rx := time.NewTicker(rexmitInterval)
	defer rx.Stop()
	for {
		if draining && s.idle() {
			if l != nil {
				s.fin(l)
			}
			return
		}
		if l == nil {
			var stopped bool
			l, stopped = s.connect(stop, deadline, &attempted)
			if stopped {
				// Shutdown arrived mid-reconnect: switch to the bounded
				// drain so an unreachable peer cannot hang Close.
				beginDrain()
				continue
			}
			if l == nil {
				return // the transport failed, or the drain deadline fired
			}
			continue
		}
		// With a full window, only acks (or failure/shutdown) can
		// make progress.
		queue := s.queue
		if s.str.full() {
			queue = nil
		}
		select {
		case seq := <-l.acks:
			if seq == finAckMark {
				disconnect()
				continue
			}
			s.acked(seq)
		case <-l.errs:
			disconnect()
		case f := <-queue:
			s.str.admit(f)
			if s.write(l.conn, f) != nil {
				disconnect()
			}
		case <-heartbeat:
			if s.suspectCheck() {
				return
			}
			ping := frame{typ: framePing, from: s.t.self, to: s.dest, gen: s.t.wireGen()}
			if s.write(l.conn, &ping) != nil {
				disconnect()
			}
		case <-rx.C:
			if s.str.stalled() {
				disconnect()
			}
		case <-stop:
			beginDrain()
		case <-deadline:
			return
		case <-s.t.killed:
			return
		}
	}
}

// fin runs the close handshake on a drained stream: every data frame
// is acked, so FIN is the last frame on the connection.
func (s *sender) fin(l *link) {
	if s.write(l.conn, &frame{typ: frameFin, from: s.t.self, to: s.dest, gen: s.t.wireGen()}) != nil {
		return
	}
	timeout := time.After(finAckTimeout)
	for {
		select {
		case seq := <-l.acks:
			if seq == finAckMark {
				return
			}
		case <-timeout:
			return
		}
	}
}
