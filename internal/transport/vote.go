package transport

import (
	"encoding/binary"
	"sync"

	"gravel/internal/obs"
)

// The step vote is cross-process Quiet and the step barrier, carried on
// the peer streams (DESIGN.md §4.5). A locally idle process casts a
// ballot — its hosted node's ledger sums — to every peer for the open
// round, and takes its next ballot only once it holds every peer's
// ballot for this one. The vote releases at the second of two
// consecutive balanced rounds (Σdeparted == Σconsumed) with identical
// sums: an instant lies after every round-r ballot and before every
// round r+1 ballot, the counters only grow, so none moved across it,
// and a ledger balanced at one instant has nothing in flight. Every
// process folds the same ballots, so all release in the same round.
// StepBarrier, a Step's whole Quiesce, runs the open vote to its
// release and passes it; Quiet, for Fabric callers, answers for the
// open vote, and a Quiet or StepBarrier after the pass opens the next.

// ballotBytes is a vote frame's payload, vote, round, departed and
// consumed, and a contribution's: four little-endian words.
const ballotBytes = 32

// ballot is one process's vote for one round.
type ballot struct {
	vote, round        uint64
	departed, consumed int64
}

// appendWords and word are the codec of the four-word payloads.
func appendWords(p []byte, w ...uint64) []byte {
	for _, x := range w {
		p = binary.LittleEndian.AppendUint64(p, x)
	}
	return p
}

func word(p []byte, i int) uint64 { return binary.LittleEndian.Uint64(p[8*i:]) }

func (b ballot) appendTo(p []byte) []byte {
	return appendWords(p, b.vote, b.round, uint64(b.departed), uint64(b.consumed))
}

func readBallot(p []byte) ballot {
	return ballot{word(p, 0), word(p, 1), int64(word(p, 2)), int64(word(p, 3))}
}

// ballots is one peer's ballots in arrival order: the open round's and
// at most the one after it, which a peer cannot pass without this
// process's own next ballot.
type ballots struct {
	b [2]ballot
	n int
}

// tally is one process's side of the vote. serveConn files peers'
// ballots into box, run folds them; mu guards both.
type tally struct {
	mu   sync.Mutex
	self int

	vote, round uint64    // the open vote and round
	cast        bool      // this process's ballot for the open round is out
	mine        ballot    // this process's latest ballot
	box         []ballots // per peer; box[self] stays empty
	last        int       // whose ballot for the open round came last

	balanced bool  // the open vote's previous round was balanced,
	sum      int64 // with this Σdeparted

	released bool // the open vote has released
	passed   bool // and a StepBarrier has returned on it
}

// file records a peer's ballot. It refuses one from a finished round,
// one two votes ahead, and one more than a peer can have outstanding.
func (v *tally) file(from int, b ballot) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	q := &v.box[from]
	stale := b.vote < v.vote || b.vote == v.vote && (v.released || b.round < v.round)
	if stale || b.vote > v.vote+1 || q.n == len(q.b) {
		return false
	}
	if b.vote == v.vote && b.round == v.round {
		v.last = from
	}
	q.b[q.n] = b
	q.n++
	return true
}

// run is one answer of the vote: snapshot, fold, cast what is due. A
// round that completes without releasing loops for a fresh snapshot,
// so the next ballot is taken after every ballot of the round before
// had arrived — the ordering the two rounds rest on. A released vote
// stays released for a repeated Quiet while nothing moved (this process
// idle with the same sums, no peer into the next vote); StepBarrier
// (barrier) passes it regardless, since a peer that saw the release
// first may be sending its next step already. run never waits on a
// peer.
func (v *tally) run(snapshot func() (departed, consumed int64, idle bool), barrier bool, send func(ballot)) bool {
	for {
		departed, consumed, idle := snapshot()
		v.mu.Lock()
		if v.released {
			moved := !idle || departed != v.mine.departed || consumed != v.mine.consumed
			for _, q := range v.box {
				moved = moved || q.n > 0
			}
			if !v.passed && (barrier || !moved) {
				v.passed = barrier
				v.mu.Unlock()
				return true
			}
			v.vote, v.round = v.vote+1, 0
			v.cast, v.released, v.passed, v.balanced = false, false, false, false
		}
		cast := !v.cast && idle
		if cast {
			v.mine = ballot{v.vote, v.round, departed, consumed}
			v.cast, v.last = true, v.self
		}
		mine := v.mine
		next, released := v.fold(barrier)
		v.mu.Unlock()
		if cast {
			send(mine)
		}
		if !next {
			return released
		}
	}
}

// fold completes the open round if every ballot for it is in, and
// reports whether the round completed without releasing (next) or
// released the vote. Called with mu held.
func (v *tally) fold(barrier bool) (next, released bool) {
	if !v.cast {
		return false, false
	}
	d, c := v.mine.departed, v.mine.consumed
	for p, q := range v.box {
		if p == v.self {
			continue
		}
		if q.n == 0 {
			return false, false
		}
		d, c = d+q.b[0].departed, c+q.b[0].consumed
	}
	for p := range v.box {
		if q := &v.box[p]; q.n > 0 {
			q.b[0], q.n = q.b[1], q.n-1
		}
	}
	release := d == c && v.balanced && d == v.sum
	v.balanced, v.sum = d == c, d
	if !release {
		v.round, v.cast = v.round+1, false
		return true, false
	}
	v.released, v.passed = true, barrier
	if obs.Enabled() {
		obs.Emit(obs.KCollective, v.self, int64(v.round+1), int64(v.last), "step-vote")
	}
	return false, true
}

// vote is Quiet's and StepBarrier's one body. A single node votes
// alone: two snapshots in one call.
func (t *TCP) vote(barrier bool) bool {
	if err := t.Err(); err != nil {
		// The transport has failed: the ledgers can never balance again
		// (Send discards), so waiting would spin forever. Panicking the
		// typed error unwinds the Step goroutine, where the node runtime
		// recovers it into a diagnosed exit.
		panic(err)
	}
	t.quietMu.Lock()
	defer t.quietMu.Unlock()
	return t.tally.run(t.observe, barrier, t.castBallot)
}

// castBallot sends b to every peer: sequenced in the stream like data,
// counted by no ledger.
func (t *TCP) castBallot(b ballot) {
	for _, s := range t.senders {
		if s != nil {
			t.sendInline(s.dest, frameVote, b.appendTo)
		}
	}
}

// sendInline stages a ballot or a contribution for to, encoded into
// frame.inline. A contribution is owed like data, so Close's drain
// cannot FIN a stream whose peer may still need its replay; a ballot
// is not: a voter must not wait on its own vote.
func (t *TCP) sendInline(to int, typ frameType, appendTo func([]byte) []byte) {
	f := getFrame()
	f.typ, f.from, f.to, f.gen = typ, t.self, to, t.wireGen()
	f.payload = appendTo(f.inline[:0])
	t.enqueue(to, f)
}

// StepBarrier implements fabric.Distributed: it parks until the open
// vote releases and passes it, so the next vote call opens a new one.
// It is the whole of a Step's Quiesce, and of the first launch's start
// barrier; after a Quiet that saw the release it returns at once. A
// failed transport panics its error.
func (t *TCP) StepBarrier() { t.Progress().Wait(func() bool { return t.vote(true) }) }
