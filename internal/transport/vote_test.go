package transport

import (
	"bufio"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"gravel/internal/obs"
)

// proc is one process of a scripted vote: its tally, its ledger, and
// the ballots it has cast that the script has not delivered yet.
type proc struct {
	v                  *tally
	departed, consumed int64
	out                []ballot
}

func newProcs(n int) []*proc {
	ps := make([]*proc, n)
	for i := range ps {
		ps[i] = &proc{v: &tally{self: i, box: make([]ballots, n)}}
	}
	return ps
}

func (p *proc) ledger() (int64, int64, bool) { return p.departed, p.consumed, true }

// answer is one Quiet (or, with barrier, one StepBarrier poll) on p,
// reading the snapshot from snap.
func (p *proc) answer(t *testing.T, snap func() (int64, int64, bool), barrier bool) bool {
	t.Helper()
	return p.v.run(snap, barrier, func(b ballot) { p.out = append(p.out, b) })
}

// post files every ballot ps[from] has cast at every other process,
// in order, as its peer streams would.
func post(t *testing.T, ps []*proc, from int) {
	t.Helper()
	for _, b := range ps[from].out {
		for i, p := range ps {
			if i != from && !p.v.file(from, b) {
				t.Fatalf("node %d refused node %d's ballot %+v", i, from, b)
			}
		}
	}
	ps[from].out = nil
}

// TestVoteCascadeHoldsRelease: a record that departs between two
// rounds — a peer's active-message handler answering what it consumed —
// holds the vote, both while it is in flight (the rounds are
// unbalanced) and once it has landed between two balanced rounds (the
// sums moved). The processes release together, in the same round.
func TestVoteCascadeHoldsRelease(t *testing.T) {
	ps := newProcs(2)
	a, b := ps[0], ps[1]
	a.departed, b.consumed = 1, 1 // the step's one record, A to B, applied
	cycle := func() (released int) {
		t.Helper()
		for i, p := range ps {
			if p.answer(t, p.ledger, false) {
				released++
			}
			post(t, ps, i)
		}
		return released
	}
	a.answer(t, a.ledger, false) // round 0: (1, 0) and (0, 1)
	b.answer(t, b.ledger, false)
	post(t, ps, 0)
	post(t, ps, 1)
	b.departed++ // B's handler answers, and the reply lands
	a.consumed++ // before either takes its round 1 snapshot
	a.answer(t, a.ledger, false)
	post(t, ps, 0)
	if b.answer(t, b.ledger, false) || b.v.round != 2 {
		t.Fatal("released on two balanced rounds whose sums moved")
	}
	post(t, ps, 1)
	if r := cycle(); r != 2 || a.v.round != 2 || b.v.round != 2 {
		t.Fatalf("%d released, not both together at round 2 (rounds %d, %d)", r, a.v.round, b.v.round)
	}

	for _, p := range ps {
		p.answer(t, p.ledger, true) // the step barrier passes vote 0
	}
	b.departed++ // vote 1: B's reply stays in flight
	for i := 0; i < 8; i++ {
		if cycle() != 0 {
			t.Fatal("released with a record in flight")
		}
	}
	a.consumed++
	for i := 0; i < 4 && !a.v.released; i++ {
		cycle()
	}
	if cycle() != 2 || a.v.round != b.v.round {
		t.Fatalf("released = %v, %v in rounds %d, %d; want both, in one round", a.v.released, b.v.released, a.v.round, b.v.round)
	}
}

// TestVoteNextBallotAfterRound pins the ordering the two-round argument
// rests on: a process takes its round r+1 snapshot only after it holds
// every round-r ballot. The scenario leaves a record in flight between
// two balanced, identical rounds that a process whose next snapshot
// predates the round's last ballot would take for quiet; the mutant
// (one snapshot per answer, reused for the next round) does, and the
// vote does not.
func TestVoteNextBallotAfterRound(t *testing.T) {
	for _, mutant := range []bool{false, true} {
		ps := newProcs(2)
		a, b := ps[0], ps[1]
		a.answer(t, a.ledger, false) // A casts round 0: (0, 0)
		post(t, ps, 0)
		b.answer(t, b.ledger, false) // B folds round 0, casts rounds 0 and 1: (0, 0)
		// A's next answer snapshots, and then B's ballots arrive and A's
		// handler sends B a record that stays in flight.
		var d0, c0 int64
		calls := 0
		snap := func() (int64, int64, bool) {
			calls++
			if calls == 1 {
				d0, c0, _ = a.ledger()
				post(t, ps, 1)
				a.departed++
				return d0, c0, true
			}
			if mutant {
				return d0, c0, true
			}
			return a.ledger()
		}
		if got := a.answer(t, snap, false); got != mutant {
			if mutant {
				t.Fatal("the mutant did not release: the scenario no longer tests the ordering")
			}
			t.Fatal("released with a record in flight")
		}
	}
}

// TestTallyRetainsNoFinishedVote: a tally keeps no ballot of a vote it
// has finished. Over many votes of a 3-process cluster the box never
// holds more than the next vote's ballots, and a ballot from a finished
// round, from two votes ahead, or one more than a peer can have
// outstanding is refused (serveConn counts it malformed).
func TestTallyRetainsNoFinishedVote(t *testing.T) {
	ps := newProcs(3)
	for vote := uint64(0); vote < 20; vote++ {
		passed := make([]bool, len(ps))
		for n := 0; n < len(ps); {
			for i, p := range ps {
				if !passed[i] && p.answer(t, p.ledger, true) {
					passed[i] = true
					n++
				}
				post(t, ps, i)
			}
		}
		for i, p := range ps {
			if p.v.vote != vote {
				t.Fatalf("node %d passed vote %d, want %d", i, p.v.vote, vote)
			}
			for from, q := range p.v.box {
				if q.n > 0 {
					t.Fatalf("vote %d: node %d still holds node %d's ballot %+v", vote, i, from, q.b[0])
				}
			}
			peer := (i + 1) % len(ps)
			for _, b := range []ballot{{vote: vote}, {vote: vote, round: 1}, {vote: vote + 2}} {
				if p.v.file(peer, b) {
					t.Fatalf("vote %d: node %d filed %+v", vote, i, b)
				}
			}
		}
	}
	// A peer cannot be more than one ballot ahead of the open round.
	v := newProcs(2)[0].v
	for i, want := range []bool{true, true, false} {
		if got := v.file(1, ballot{round: uint64(i)}); got != want {
			t.Fatalf("ballot %d filed = %v, want %v", i, got, want)
		}
	}
}

// TestVoteFrameRefusals: serveConn counts a vote frame with a payload
// of the wrong length, or a ballot its tally refuses, as malformed and
// drops the connection; a well-formed ballot is acknowledged like data.
func TestVoteFrameRefusals(t *testing.T) {
	tr := newRecvOnlyTCP(t, 2, 1, 0)
	defer tr.Close()
	tr.tally.vote = 5
	open := func() (net.Conn, *bufio.Reader) {
		t.Helper()
		c, err := net.DialTimeout("tcp", tr.Addr(), dialTimeout)
		if err != nil {
			t.Fatal(err)
		}
		br := bufio.NewReader(c)
		if err := writeFrame(c, &frame{typ: frameHello, from: 0, to: 1}); err != nil {
			t.Fatal(err)
		}
		if f, err := readFrame(br); err != nil || f.typ != frameAck {
			t.Fatalf("handshake: %+v, %v", f, err)
		}
		return c, br
	}
	for i, tc := range []struct {
		name    string
		payload []byte
	}{
		{"short payload", make([]byte, ballotBytes-1)},
		{"finished vote", ballot{vote: 4, round: 9}.appendTo(nil)},
		{"two votes ahead", ballot{vote: 7}.appendTo(nil)},
	} {
		c, br := open()
		if err := writeFrame(c, &frame{typ: frameVote, from: 0, to: 1, seq: 1, payload: tc.payload}); err != nil {
			t.Fatal(err)
		}
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		if f, err := readFrame(br); err == nil {
			t.Fatalf("%s: answered with frame %+v, want the connection dropped", tc.name, f)
		}
		c.Close()
		if got := tr.Malformed.Load(); got != int64(i+1) {
			t.Fatalf("%s: Malformed = %d, want %d", tc.name, got, i+1)
		}
	}
	c, br := open()
	defer c.Close()
	if err := writeFrame(c, &frame{typ: frameVote, from: 0, to: 1, seq: 1, payload: ballot{vote: 5}.appendTo(nil)}); err != nil {
		t.Fatal(err)
	}
	if f, err := readFrame(br); err != nil || f.typ != frameAck || f.seq != 1 {
		t.Fatalf("well-formed ballot answered %+v, %v; want ack 1", f, err)
	}
}

// stepLoop runs steps on every fabric of a TCP cluster the way
// core.Cluster.Step does: a start barrier, then per step some sends to
// random nodes and end — the step barrier alone, as core.Cluster.Quiesce
// ends one, or a Fabric caller's shape — while a consumer per fabric
// applies what arrives. It fails the test if the steps do not finish
// within the deadline.
func stepLoop(t *testing.T, fabs []*TCP, steps int, seed int64, end func(*TCP)) {
	t.Helper()
	var consumers sync.WaitGroup
	for i, f := range fabs {
		consumers.Add(1)
		go func() {
			defer consumers.Done()
			for p := range f.Inbox(i) {
				f.Done(p)
			}
		}()
	}
	defer consumers.Wait()
	defer closeAll(fabs)
	done := make(chan struct{}, len(fabs))
	for i, f := range fabs {
		go func() {
			rng := rand.New(rand.NewSource(seed + int64(i)))
			f.StepBarrier()
			for s := 0; s < steps; s++ {
				for k := rng.Intn(3); k > 0; k-- {
					f.Send(i, rng.Intn(len(fabs)), incBuf(uint64(s), 1), 1)
				}
				end(f)
			}
			done <- struct{}{}
		}()
	}
	for range fabs {
		select {
		case <-done:
		case <-time.After(20 * time.Second):
			t.Fatalf("the steps did not finish:%s", openVotes(fabs))
		}
	}
}

// openVotes describes each fabric's tally, for a hang report.
func openVotes(fabs []*TCP) string {
	s := ""
	for i, f := range fabs {
		v := &f.tally
		v.mu.Lock()
		s += fmt.Sprintf(" [node %d: vote %d round %d cast %v released %v passed %v]", i, v.vote, v.round, v.cast, v.released, v.passed)
		v.mu.Unlock()
	}
	return s
}

// TestStepVoteKeepsStepsAligned: every process votes once per step,
// whether the step ends in the barrier alone or in Quiet and then the
// barrier, so none runs ahead into a vote its peers never open; and
// each released vote leaves one trace event per process.
func TestStepVoteKeepsStepsAligned(t *testing.T) {
	shapes := []struct {
		name string
		end  func(*TCP)
	}{
		{"barrier", (*TCP).StepBarrier},
		{"quiet+barrier", func(f *TCP) {
			f.Progress().Wait(f.Quiet)
			f.StepBarrier()
		}},
	}
	for _, n := range []int{2, 4} {
		t.Run(fmt.Sprintf("nodes=%d", n), func(t *testing.T) {
			for _, shape := range shapes {
				t.Run(shape.name, func(t *testing.T) {
					const steps = 200
					rec := obs.Start(obs.Options{})
					defer obs.Stop()
					stepLoop(t, newTCPCluster(t, n), steps, int64(n), shape.end)
					votes := 0
					for _, e := range rec.Events() {
						if e.Kind != obs.KCollective || e.Tag != "step-vote" {
							continue
						}
						votes++
						if e.A < 2 || e.B < 0 || e.B >= int64(n) {
							t.Fatalf("step-vote event %+v: want A (rounds) >= 2 and B a node", e)
						}
					}
					if want := n * (steps + 1); votes != want {
						t.Fatalf("%d step-vote events, want %d (one per process per vote)", votes, want)
					}
				})
			}
		})
	}
}
