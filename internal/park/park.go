// Package park is the runtime's one host-side wait: spin for a bounded
// time, then park until the state the waiter is waiting on changes.
//
// An Event stands for "something a waiter's predicate reads has
// changed". Whoever changes that state calls Wake afterwards; a waiter
// calls Wait with the predicate if a Step is waiting for it (Quiesce,
// LaunchAll, a device thread waiting for its next launch) and
// WaitParked if not (an aggregator thread with nothing to drain or
// transmit): a waiter spins only on a Step's critical path (DESIGN.md,
// "Progress"). Device-side waits (queue slot hand-off, work-group
// barriers) model GPU threads and spin on their own.
//
// No wake is lost as long as every writer changes the state before
// calling Wake and the state is read with atomics or under a lock: a
// waiter announces itself before its last look at the predicate, and a
// waker looks for announced waiters after its write, so one of the two
// always sees the other (Dekker's argument; Go's atomics are
// sequentially consistent).
package park

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// spinBudget is how long Wait polls the predicate, yielding between
// polls, before it parks. It is longer than one small Step (tens of
// microseconds), so the threads serving back-to-back small steps never
// pay a park/unpark pair, and short enough that an idle cluster is off
// the processors almost at once.
const spinBudget = 100 * time.Microsecond

// Event is a wake-up point shared by the writers of some state and the
// threads waiting on it. The zero value is ready to use; an Event must
// not be copied after first use. A nil *Event has no waiters: Wake on
// it does nothing.
type Event struct {
	// waiters counts threads between announcing themselves and leaving
	// park; Wake's fast path is one load of it.
	waiters atomic.Int32
	// seq numbers the wakes delivered to announced waiters. A waiter
	// parks only while seq still has the value it read on announcing
	// itself.
	seq atomic.Uint64

	mu   sync.Mutex // orders seq's increments with the parked waiters' checks
	cond sync.Cond  // L is set to &mu under mu, by the first waiter to park
}

// Wake releases every waiter parked on e. Call it after the write that
// may have made a waiter's predicate true. With nobody waiting it costs
// one atomic load, so it can sit on a per-packet or per-slot path.
func (e *Event) Wake() {
	if e == nil || e.waiters.Load() == 0 {
		return
	}
	e.mu.Lock()
	e.seq.Add(1)
	e.cond.Broadcast()
	e.mu.Unlock()
}

// Parked returns how many waiters are past their spin: announced, and
// blocked or about to be. It is what tests use to stage a change at the
// moment every waiter depends on its Wake.
func (e *Event) Parked() int { return int(e.waiters.Load()) }

// Wakes returns how many Wakes found a waiter to release; tests use it
// to show that an edge woke nobody.
func (e *Event) Wakes() uint64 { return e.seq.Load() }

// Wait returns once pred reports true. It polls pred for spinBudget,
// yielding the processor between polls, then parks until the next Wake
// and starts over: a wake means the state is moving, so more changes
// are likely within the budget. pred runs on the calling goroutine, any
// number of times until it first reports true and never after, so a
// predicate that acts (the TCP step vote casts ballots) answers once;
// it may block, but it must not call Wait on the same Event. Wait
// allocates nothing, provided pred does not escape at the call site.
func (e *Event) Wait(pred func() bool) {
	for !pred() {
		for start := time.Now(); time.Since(start) < spinBudget; {
			runtime.Gosched()
			if pred() {
				return
			}
		}
		if e.park(pred) {
			return
		}
	}
}

// WaitParked is Wait without the spin: it parks at once and again after
// every Wake that leaves pred false. A thread that yields in a loop sits
// on the scheduler's global run queue, and a processor that finds that
// queue non-empty never steals the work a Step is waiting for.
func (e *Event) WaitParked(pred func() bool) {
	for !pred() {
		if e.park(pred) {
			return
		}
	}
}

// park blocks until the next Wake, unless pred already holds once the
// caller has announced itself, which it reports.
func (e *Event) park(pred func() bool) (held bool) {
	e.waiters.Add(1)
	defer e.waiters.Add(-1)
	seen := e.seq.Load()
	if pred() {
		return true
	}
	e.mu.Lock()
	if e.cond.L == nil {
		e.cond.L = &e.mu
	}
	for e.seq.Load() == seen {
		e.cond.Wait()
	}
	e.mu.Unlock()
	return false
}
