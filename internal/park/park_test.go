package park

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// A lost wake-up is a hang, so every test here runs its waiters under a
// deadline and fails instead of blocking the suite.
func within(t *testing.T, d time.Duration, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s: still waiting after %v (lost wake-up?)", what, d)
	}
}

// jitter yields the processor a random number of times, so the writer's
// store, its look for waiters, the waiter's announcement and its last
// look at the predicate interleave differently every round.
func jitter(r *rand.Rand) {
	for n := r.Intn(4); n > 0; n-- {
		runtime.Gosched()
	}
}

// form is one of the two ways to wait on an Event: spin first, or park
// at once. Every property below holds for both. (The calls are direct
// so that, as at the real call sites, pred does not escape.)
type form bool

func (parked form) wait(e *Event, pred func() bool) {
	if parked {
		e.WaitParked(pred)
	} else {
		e.Wait(pred)
	}
}

func eachForm(t *testing.T, f func(*testing.T, form)) {
	t.Run("Wait", func(t *testing.T) { f(t, false) })
	t.Run("WaitParked", func(t *testing.T) { f(t, true) })
}

// TestParkWakeStress plays ping-pong between two threads until 1e5
// wakes have been delivered to a thread that had announced itself —
// each of them a window in which the wake could have been lost. Without
// the spin nearly every round is one; with it most rounds never park, so
// that form stops after 3e5 rounds whatever it has collected.
func TestParkWakeStress(t *testing.T) { eachForm(t, parkWakeStress) }

func parkWakeStress(t *testing.T, f form) {
	const wakes = 100_000
	var (
		ping, pong Event
		x, y       atomic.Int64
		stop       atomic.Bool
	)
	await := func(e *Event, v *atomic.Int64, want int64) {
		f.wait(e, func() bool { return v.Load() >= want || stop.Load() })
	}
	within(t, 2*time.Minute, "ping-pong", func() {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rand.New(rand.NewSource(1))
			for i := int64(1); !stop.Load(); i++ {
				await(&ping, &x, i)
				jitter(r)
				y.Store(i)
				pong.Wake()
			}
		}()
		r := rand.New(rand.NewSource(2))
		for i := int64(1); ping.seq.Load()+pong.seq.Load() < wakes && i < 3*wakes; i++ {
			jitter(r)
			x.Store(i)
			ping.Wake()
			await(&pong, &y, i)
		}
		stop.Store(true)
		ping.Wake()
		wg.Wait()
	})
	if n := ping.waiters.Load() + pong.waiters.Load(); n != 0 {
		t.Fatalf("%d waiters still announced after everyone returned", n)
	}
}

// TestWaitManyWaiters has several threads wait on one Event, each for
// its own turn of a shared counter: every Wake must reach all of them,
// not one.
func TestWaitManyWaiters(t *testing.T) { eachForm(t, waitManyWaiters) }

func waitManyWaiters(t *testing.T, f form) {
	const waiters, turns = 4, 200
	var (
		e    Event
		turn atomic.Int64
	)
	within(t, time.Minute, "round-robin", func() {
		var wg sync.WaitGroup
		for w := 0; w < waiters; w++ {
			wg.Add(1)
			go func(w int64) {
				defer wg.Done()
				for i := w; i < turns; i += waiters {
					f.wait(&e, func() bool { return turn.Load() == i })
					if i%7 == 0 {
						time.Sleep(2 * spinBudget) // let the others park
					}
					turn.Add(1)
					e.Wake()
				}
			}(int64(w))
		}
		wg.Wait()
	})
	if got := turn.Load(); got != turns {
		t.Fatalf("counter at %d after %d turns", got, turns)
	}
}

// TestWaitReturnsAtOnce: a predicate that already holds costs one call
// and no park; a nil Event can be woken.
func TestWaitReturnsAtOnce(t *testing.T) {
	var e Event
	calls := 0
	e.Wait(func() bool { calls++; return true })
	if calls != 1 || e.waiters.Load() != 0 {
		t.Fatalf("pred called %d times, %d waiters announced", calls, e.waiters.Load())
	}
	var none *Event
	none.Wake()
}

// TestWaitAllocatesNothing pins the contract the per-Step paths rely
// on: spinning, parking and waking allocate no timer, channel or
// closure.
func TestWaitAllocatesNothing(t *testing.T) { eachForm(t, waitAllocatesNothing) }

func waitAllocatesNothing(t *testing.T, f form) {
	var (
		e    Event
		flag atomic.Bool
	)
	stop := make(chan struct{})
	defer close(stop)
	go func() { // sets the flag whenever it finds it clear
		for {
			select {
			case <-stop:
				return
			default:
			}
			if !flag.Load() {
				time.Sleep(2 * spinBudget) // long enough for the waiter to park
				flag.Store(true)
				e.Wake()
			}
			runtime.Gosched()
		}
	}()
	within(t, time.Minute, "alloc loop", func() {
		if n := testing.AllocsPerRun(20, func() {
			f.wait(&e, flag.Load)
			flag.Store(false)
		}); n != 0 {
			t.Errorf("waiting allocates %v objects per call", n)
		}
	})
}

// TestWaitStopsAtFirstTrue: once pred has said true it is not asked
// again, whether it said so spinning, at the park's announced look, or
// after a wake, so a predicate that acts answers once.
func TestWaitStopsAtFirstTrue(t *testing.T) { eachForm(t, waitStopsAtFirstTrue) }

func waitStopsAtFirstTrue(t *testing.T, f form) {
	for _, after := range []int{1, 2, 3, 50} {
		var e Event
		var calls, late atomic.Int32
		done := make(chan struct{})
		go func() { // wakes whoever has parked until the wait is over
			for {
				select {
				case <-done:
					return
				default:
				}
				e.Wake()
				runtime.Gosched()
			}
		}()
		within(t, 10*time.Second, "wait", func() {
			f.wait(&e, func() bool {
				if calls.Load() >= int32(after) {
					late.Add(1)
				}
				return calls.Add(1) >= int32(after)
			})
		})
		close(done)
		if n := late.Load(); n != 0 {
			t.Fatalf("true after %d calls, then asked %d more times", after, n)
		}
	}
}
