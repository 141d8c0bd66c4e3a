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

// sender is one outbound stream: a bounded queue of staged frames, a
// bounded window of unacknowledged frames, and a writer goroutine that
// owns the connection — dialing, handshaking, retransmitting the window
// after reconnects, and FINing on shutdown.
type sender struct {
	t    *TCP
	dest int
	addr string

	queue chan *frame
	stop  chan struct{}
	done  chan struct{}

	// Writer-goroutine-only state for write coalescing: enc is the
	// frame-encode scratch, bw batches encoded frames into one socket
	// write (reset onto each new connection), and winScratch is reused
	// across handshake retransmits so replaying the window allocates
	// nothing.
	enc        []byte
	bw         *bufio.Writer
	winScratch []*frame

	// lastAck is the unix-nano time of the last proof the peer is alive:
	// construction, a completed handshake, or any received ack (data
	// frames and heartbeat pings are both acknowledged). The suspect
	// check compares silence against it.
	lastAck atomic.Int64

	mu      sync.Mutex
	window  []*frame
	nextSeq uint64
	conn    net.Conn // current connection, for fault injection
}

// progress marks the peer alive now.
func (s *sender) progress() { s.lastAck.Store(time.Now().UnixNano()) }

// silence returns how long the peer has shown no sign of life.
func (s *sender) silence() time.Duration {
	return time.Duration(time.Now().UnixNano() - s.lastAck.Load())
}

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
	if sil := s.silence(); sil > suspect {
		s.t.fail(&PeerDownError{Node: s.dest, Detector: "sender", Silence: sil})
		return true
	}
	return false
}

// idle reports whether nothing is staged or awaiting acknowledgment.
func (s *sender) idle() bool {
	if len(s.queue) != 0 {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.window) == 0
}

// trim drops acknowledged frames (seq ≤ acked) from the window and
// recycles them: the cumulative ack is the proof no retransmit can ever
// replay a trimmed frame, so this is the one safe recycle point on the
// send side.
func (s *sender) trim(acked uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	i := 0
	for i < len(s.window) && s.window[i].seq <= acked {
		if f := s.window[i]; f.sentAt != 0 && obs.Enabled() {
			rtt := obs.Now() - f.sentAt
			obs.ObserveFlushRTT(rtt)
			obs.Emit(obs.KAck, s.t.self, int64(f.seq), rtt, "")
		}
		putFrame(s.window[i])
		s.window[i] = nil
		i++
	}
	if i == len(s.window) {
		s.window = s.window[:0]
	} else {
		s.window = s.window[i:]
	}
}

// windowHead returns the seq of the oldest unacknowledged frame, or 0
// (sequences start at 1) when the window is empty.
func (s *sender) windowHead() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.window) == 0 {
		return 0
	}
	return s.window[0].seq
}

// appendWindow appends the unacknowledged window onto dst (a reusable
// scratch), replacing the per-call snapshot copy the handshake used to
// allocate on every reconnect.
func (s *sender) appendWindow(dst []*frame) []*frame {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append(dst, s.window...)
}

// writeCoalesced encodes f into the sender's scratch and appends it to
// the connection's batching writer. Bytes are copied out of the frame,
// so the caller's ownership (window, pool) is unaffected. The caller is
// responsible for flushing: data frames ride the 125µs flush deadline
// (mirroring the aggregator's flush timeout), control frames flush
// immediately.
func (s *sender) writeCoalesced(f *frame) error {
	s.enc = appendFrame(s.enc[:0], f)
	_, err := s.bw.Write(s.enc)
	return err
}

// writeData assigns a sequence number (first transmission only), pushes
// f onto the retransmit window, and stages its bytes on the batching
// writer.
func (s *sender) writeData(f *frame) error {
	if f.seq == 0 {
		s.nextSeq++
		f.seq = s.nextSeq
		if obs.Enabled() {
			f.sentAt = obs.Now()
		}
	}
	s.push(f)
	return s.writeCoalesced(f)
}

func (s *sender) windowFull() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.window) >= sendWindowFrames
}

func (s *sender) push(f *frame) {
	s.mu.Lock()
	s.window = append(s.window, f)
	s.mu.Unlock()
}

func (s *sender) setConn(c net.Conn) {
	s.mu.Lock()
	s.conn = c
	s.mu.Unlock()
}

// dropConn force-closes the current connection (fault injection).
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

// connect dials with exponential backoff and jitter until it succeeds,
// shutdown begins (stop closes — stopped=true so the caller can start
// its bounded drain), or the drain deadline fires. On success it
// handshakes, retransmits the unacknowledged window, and returns the
// established conn with its ack reader channels.
func (s *sender) connect(stop <-chan struct{}, abort <-chan time.Time, attempted *bool) (conn net.Conn, acks chan uint64, errs chan error, stopped bool) {
	backoff := backoffInitial
	for {
		if !s.t.inj.LinkBlocked(s.t.self, s.dest) { // cut links fail fast into backoff
			conn, err := net.DialTimeout("tcp", s.addr, dialTimeout)
			if err == nil {
				conn = s.t.inj.WrapConn(conn, s.t.self, s.dest)
				if c, acks, errs := s.handshake(conn); c != nil {
					if *attempted {
						s.t.Reconnects.Inc()
						if obs.Enabled() {
							obs.Emit(obs.KReconnect, s.t.self, int64(s.dest), 0, "")
						}
					}
					*attempted = true
					return c, acks, errs, false
				}
			}
		}
		s.t.Retries.Inc()
		if s.suspectCheck() {
			return nil, nil, nil, false
		}
		if s.t.Err() != nil {
			// The transport failed while we were (re)dialing — e.g. the
			// handshake above was refused with a stale-generation evict.
			// Redialing cannot help; let the writer loop exit.
			return nil, nil, nil, false
		}
		sleep := backoff + time.Duration(rand.Int63n(int64(backoff)))
		if backoff < backoffMax {
			backoff *= 2
		}
		select {
		case <-time.After(sleep):
		case <-stop:
			return nil, nil, nil, true
		case <-abort:
			return nil, nil, nil, false
		case <-s.t.killed:
			return nil, nil, nil, false
		}
	}
}

// handshake sends HELLO, consumes the receiver's cumulative ack (which
// trims the window after a reconnect), retransmits whatever remains,
// and starts the ack reader.
func (s *sender) handshake(conn net.Conn) (net.Conn, chan uint64, chan error) {
	if err := writeFrame(conn, &frame{typ: frameHello, from: s.t.self, to: s.dest, gen: s.t.wireGen()}); err != nil {
		conn.Close()
		return nil, nil, nil
	}
	br := bufio.NewReaderSize(conn, 16<<10)
	conn.SetReadDeadline(time.Now().Add(handshakeTimeout))
	ack, err := readFrame(br)
	if err == nil && ack.typ == frameEvict {
		// The receiver is on a newer membership generation: this process
		// was evicted. Fail the whole transport with the typed error —
		// retrying the handshake could never succeed.
		conn.Close()
		s.t.fail(&StaleGenerationError{Have: s.t.gen, Want: uint32(ack.seq), Source: "peer"})
		return nil, nil, nil
	}
	if err != nil || ack.typ != frameAck {
		conn.Close()
		return nil, nil, nil
	}
	conn.SetReadDeadline(time.Time{})
	s.trim(ack.seq)
	if s.bw == nil {
		s.bw = bufio.NewWriterSize(conn, coalesceBufBytes)
	} else {
		s.bw.Reset(conn)
	}
	s.winScratch = s.appendWindow(s.winScratch[:0])
	if len(s.winScratch) > 0 && obs.Enabled() {
		obs.Emit(obs.KRetransmit, s.t.self, int64(s.dest), int64(len(s.winScratch)), "")
	}
	retransmitErr := false
	for _, f := range s.winScratch {
		if err := s.writeCoalesced(f); err != nil {
			retransmitErr = true
			break
		}
	}
	for i := range s.winScratch {
		s.winScratch[i] = nil // scratch must not pin recycled frames
	}
	if retransmitErr || s.bw.Flush() != nil {
		conn.Close()
		return nil, nil, nil
	}
	acks := make(chan uint64, sendWindowFrames)
	errs := make(chan error, 1)
	go func() {
		var f frame // reused: acks carry no payload
		for {
			if err := readFrameInto(br, &f); err != nil {
				errs <- err
				return
			}
			switch f.typ {
			case frameAck:
				// Progress is stamped at arrival, not when the writer loop
				// drains the channel: an injected stall blocks the writer,
				// and acks landing meanwhile must still prove liveness.
				s.progress()
				acks <- f.seq
			case frameFinAck:
				acks <- finAckMark
				return
			default:
				errs <- fmt.Errorf("transport: unexpected %d frame on ack stream", f.typ)
				return
			}
		}
	}()
	s.setConn(conn)
	s.progress()
	return conn, acks, errs
}

// run is the writer loop.
func (s *sender) run() {
	defer close(s.done)
	var (
		conn      net.Conn
		acks      chan uint64
		errs      chan error
		attempted bool
		draining  bool
		deadline  <-chan time.Time
		stop      = s.stop
	)
	disconnect := func() {
		if conn != nil {
			conn.Close()
			s.setConn(nil)
			conn = nil
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
	// Retransmit watchdog: if the oldest unacked frame is the same one
	// it was a full interval ago, the stream tail was lost in flight;
	// reconnecting replays the window (the receiver deduplicates).
	rx := time.NewTicker(rexmitInterval)
	defer rx.Stop()
	var rexmitHead uint64
	// Flush deadline for coalesced writes: armed after staging data
	// frames, it bounds how long encoded bytes may sit in s.bw. Created
	// stopped; hand-built test senders that never connect never arm it.
	flushTimer := time.NewTimer(coalesceFlushInterval)
	if !flushTimer.Stop() {
		<-flushTimer.C
	}
	defer flushTimer.Stop()
	flushArmed := false
	for {
		if draining && len(s.queue) == 0 {
			s.mu.Lock()
			empty := len(s.window) == 0
			s.mu.Unlock()
			if empty {
				if conn != nil {
					s.fin(conn, acks)
				}
				return
			}
		}
		if conn == nil {
			// Nothing to transmit and shutting down: don't redial.
			if draining && len(s.queue) == 0 && s.idle() {
				continue // loops into the exit branch above
			}
			var stopped bool
			conn, acks, errs, stopped = s.connect(stop, deadline, &attempted)
			if stopped {
				// Shutdown arrived mid-reconnect: switch to the bounded
				// drain so an unreachable peer cannot hang Close.
				beginDrain()
				continue
			}
			if conn == nil {
				return // drain deadline fired while reconnecting
			}
			continue
		}
		// With a full window, only acks (or failure/shutdown) can
		// make progress.
		queue := s.queue
		if s.windowFull() {
			queue = nil
		}
		select {
		case seq := <-acks:
			if seq == finAckMark {
				disconnect()
				continue
			}
			s.trim(seq)
		case <-errs:
			disconnect()
		case f := <-queue:
			// Burst-drain: pull every frame already staged (up to the
			// window limit) into one buffered write, then arm the flush
			// deadline instead of paying a syscall per frame.
			err := s.writeData(f)
		burst:
			for err == nil && !s.windowFull() {
				select {
				case f2 := <-s.queue:
					err = s.writeData(f2)
				default:
					break burst
				}
			}
			if err != nil {
				disconnect()
			} else if s.bw.Buffered() > 0 && !flushArmed {
				flushTimer.Reset(coalesceFlushInterval)
				flushArmed = true
			}
		case <-flushTimer.C:
			flushArmed = false
			if conn != nil && s.bw.Flush() != nil {
				disconnect()
			}
		case <-heartbeat:
			if s.suspectCheck() {
				return
			}
			ping := frame{typ: framePing, from: s.t.self, to: s.dest, gen: s.t.wireGen()}
			if s.writeCoalesced(&ping) != nil || s.bw.Flush() != nil {
				disconnect()
			}
		case <-rx.C:
			head := s.windowHead()
			if head != 0 && head == rexmitHead {
				disconnect()
				head = 0 // fresh grace period after the reconnect replays
			}
			rexmitHead = head
		case <-stop:
			beginDrain()
		case <-deadline:
			return
		case <-s.t.killed:
			disconnect()
			return
		}
	}
}

// fin runs the close handshake on a drained stream. The window is
// empty (every data frame acked, which implies flushed), so the
// batching writer holds no bytes; flush anyway to make FIN ordering
// independent of that invariant.
func (s *sender) fin(conn net.Conn, acks chan uint64) {
	if s.bw != nil && s.bw.Flush() != nil {
		return
	}
	if err := writeFrame(conn, &frame{typ: frameFin, from: s.t.self, to: s.dest, gen: s.t.wireGen()}); err != nil {
		return
	}
	timeout := time.After(finAckTimeout)
	for {
		select {
		case seq := <-acks:
			if seq == finAckMark {
				return
			}
		case <-timeout:
			return
		}
	}
}
