package transport

import (
	"io"
	"sync"
	"sync/atomic"

	"gravel/internal/obs"
)

// The reliability protocol of one sender→receiver stream, with no
// connection and no goroutine in it: whoever owns the byte stream (the
// TCP sender and serveConn, or a test's scripted link) moves the frames
// and tells the two halves below what arrived.
//
// The send half numbers data frames, ballots and contributions from 1
// and keeps every transmitted frame in a bounded window until a
// cumulative ack covers it. A new connection starts with the
// receiver's resume point, which trims the window like any ack; what
// is left is replayed in order. The receive half delivers a frame
// only if it is the next in sequence and arrived on the live
// connection, so a replay after a lost ack is re-acked and dropped, a
// gap (a frame lost mid-stream) poisons the connection into exactly
// that reconnect, and a connection superseded by a reconnect can no
// longer deliver what its reader still buffers. Together: in-order,
// exactly-once delivery across any number of connections.

// sendStream is the send half. One goroutine drives it; idle alone may
// be called from any other.
type sendStream struct {
	window  []*frame // transmitted, unacknowledged, ascending seq
	nextSeq uint64
	unacked atomic.Int64 // len(window)

	// stalledHead is the window's oldest seq at the previous stalled
	// poll, 0 for an empty window (sequences start at 1).
	stalledHead uint64
}

// full reports that no further frame may be admitted until an ack
// trims the window.
func (s *sendStream) full() bool { return len(s.window) >= sendWindowFrames }

// idle reports that every admitted frame has been acknowledged.
func (s *sendStream) idle() bool { return s.unacked.Load() == 0 }

// admit numbers a fresh frame and appends it to the window. The caller
// transmits it, and must not admit into a full window.
func (s *sendStream) admit(f *frame) {
	s.nextSeq++
	f.seq = s.nextSeq
	if !f.typ.inline() && obs.Enabled() {
		f.sentAt = obs.Now()
	}
	s.window = append(s.window, f)
	s.unacked.Add(1)
}

// ack trims every frame with seq ≤ acked out of the window and recycles
// it. The cumulative ack is the proof no replay can need the frame
// again, which makes this the one recycle point of the send side. It
// returns how many of the trimmed frames were owed (not ballots).
func (s *sendStream) ack(acked uint64) (data int) {
	i := 0
	for i < len(s.window) && s.window[i].seq <= acked {
		f := s.window[i]
		if f.typ != frameVote {
			data++
		}
		if f.sentAt != 0 && obs.Enabled() {
			rtt := obs.Now() - f.sentAt
			obs.ObserveFlushRTT(rtt)
			obs.Emit(obs.KAck, f.from, int64(f.seq), rtt, "")
		}
		putFrame(f)
		i++
	}
	// The survivors move to the front: admit never regrows the window.
	n := copy(s.window, s.window[i:])
	clear(s.window[n:])
	s.window = s.window[:n]
	s.unacked.Add(int64(-i))
	return data
}

// replay returns the frames to retransmit, in order, on a connection
// whose resume point has been acked. The slice is the window itself:
// valid until the next admit or ack.
func (s *sendStream) replay() []*frame { return s.window }

// stalled is polled once per rexmitInterval and reports whether the
// oldest unacknowledged frame is still the one it was a poll ago: the
// tail of the stream was lost with no successor to expose the gap, and
// only a reconnect (whose replay the receiver deduplicates) recovers
// it. A reported stall restarts the grace period.
func (s *sendStream) stalled() bool {
	var head uint64
	if len(s.window) > 0 {
		head = s.window[0].seq
	}
	stuck := head != 0 && head == s.stalledHead
	if stuck {
		head = 0
	}
	s.stalledHead = head
	return stuck
}

// verdict is the receive half's ruling on one arriving data frame.
type verdict uint8

const (
	// frameDelivered: next in sequence, handed to the inbox; acknowledge.
	frameDelivered verdict = iota
	// frameDuplicate: already delivered (a replay after a reconnect);
	// acknowledge again and drop.
	frameDuplicate
	// frameGap: beyond the next in sequence, so a frame was lost on this
	// connection; poison it, the reconnect replays from the resume point.
	frameGap
	// frameRetired: the connection was superseded, or delivery was
	// refused (inboxes closed); stop serving it without acknowledging.
	frameRetired
)

// recvStream is the receive half: the dedup point of one peer's stream
// and the identity of the one connection allowed to deliver on it. mu
// is held across the whole check / deliver / record sequence, so two
// connections from one peer can never both pass the check for one
// frame.
type recvStream struct {
	mu   sync.Mutex
	seq  uint64    // highest seq delivered: the cumulative ack
	live io.Closer // the connection allowed to deliver
}

// attach makes conn the stream's live connection, closing the one it
// supersedes, and returns the resume point to acknowledge. Closing
// first matters: the old connection's handler may still hold frames in
// its reader, and the replay on conn must not race them past accept.
func (r *recvStream) attach(conn io.Closer) (resume uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.live != nil {
		r.live.Close()
	}
	r.live = conn
	return r.seq
}

// detach retires conn if it is still the live connection.
func (r *recvStream) detach(conn io.Closer) {
	r.mu.Lock()
	if r.live == conn {
		r.live = nil
	}
	r.mu.Unlock()
}

// cumAck is the highest sequence number delivered so far.
func (r *recvStream) cumAck() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq
}

// accept rules on the data frame numbered seq that arrived on conn,
// calling deliver for the one frame that is next in sequence on the
// live connection.
func (r *recvStream) accept(conn io.Closer, seq uint64, deliver func() bool) verdict {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch {
	case r.live != conn:
		return frameRetired
	case seq > r.seq+1:
		return frameGap
	case seq <= r.seq:
		return frameDuplicate
	case !deliver():
		return frameRetired
	}
	r.seq = seq
	return frameDelivered
}
