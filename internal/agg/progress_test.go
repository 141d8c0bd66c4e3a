package agg

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"gravel/internal/queue"
	"gravel/internal/timemodel"
	"gravel/internal/wire"
)

// startStrategy builds and starts one strategy over a recording fabric.
func startStrategy(t *testing.T, archive bool) (Strategy, *driver, *queue.Gravel, *recFabric) {
	t.Helper()
	p := timemodel.Default()
	fab := &recFabric{nodes: 3}
	q := queue.NewGravel(512, wire.SlotRows, 4)
	var (
		s Strategy
		d *driver
	)
	if archive {
		ar := NewArchive(0, p, q, fab, &timemodel.Clocks{}, true)
		s, d = ar, ar.driver
	} else {
		a := New(0, p, q, fab, &timemodel.Clocks{}, false)
		s, d = a, a.driver
	}
	s.Start()
	t.Cleanup(s.Stop)
	return s, d, q, fab
}

// waitParked blocks until the aggregator thread is parked.
func waitParked(t *testing.T, d *driver) {
	t.Helper()
	for t0 := time.Now(); d.work.Parked() < 1; runtime.Gosched() {
		if time.Since(t0) > 10*time.Second {
			t.Fatal("aggregator thread not parked after 10 s idle")
		}
	}
}

// TestIdleAggregatorIsNotBusy: an aggregator with nothing in hand must
// never read Busy — a waiter that parks on that reading has nobody to
// wake it. (Every empty poll used to raise the counter.)
func TestIdleAggregatorIsNotBusy(t *testing.T) {
	for _, archive := range []bool{false, true} {
		s, d, _, _ := startStrategy(t, archive)
		// While the thread spins, and after it has parked.
		for i := 0; i < 20000; i++ {
			if s.Busy() {
				t.Fatalf("%s: idle aggregator reads Busy (sample %d)", s.Name(), i)
			}
			runtime.Gosched()
		}
		waitParked(t, d)
		if s.Busy() {
			t.Fatalf("%s: parked aggregator reads Busy", s.Name())
		}
	}
}

// TestQueueWakesAggregator hammers the two edges that wake an idle
// aggregator thread — a Commit on the producer/consumer queue and a
// packet staged from host context — against a thread that is spinning,
// about to park, or (every 64th message) known to be parked. Every
// message is a PUT_SIGNAL, which must reach the wire without a Flush;
// one that does not within the deadline is a lost wake-up.
func TestQueueWakesAggregator(t *testing.T) {
	msgs := 100_000
	if testing.Short() {
		msgs = 10_000
	}
	sig := wire.PackSigCmd(1, 2, 0)
	for _, archive := range []bool{false, true} {
		s, d, q, fab := startStrategy(t, archive)
		r := rand.New(rand.NewSource(1))
		for i := 0; i < msgs; i++ {
			if i%64 == 0 {
				waitParked(t, d)
			}
			for n := r.Intn(3); n > 0; n-- {
				runtime.Gosched()
			}
			if i%2 == 0 {
				enqueue(q, sig, []int{1}, []uint64{uint64(i)})
			} else {
				s.AppendDirect(2, sig, uint64(i), 1, 0)
			}
			for t0 := time.Now(); fab.count() <= i; runtime.Gosched() {
				if time.Since(t0) > 10*time.Second {
					t.Fatalf("%s: message %d never reached the wire (%d parked)",
						s.Name(), i, d.work.Parked())
				}
			}
		}
	}
}

// TestTimeoutFlushWakesNobody: Flush pumps what it stages, so staging
// it must not wake the parked aggregator thread to find an empty
// outbox — at fine grain that was two wake/park pairs per Step. The
// message is staged from host context: a queue Commit would be a wake
// edge of its own.
func TestTimeoutFlushWakesNobody(t *testing.T) {
	inc := wire.PackCmd(wire.OpInc, 0, 1)
	for _, archive := range []bool{false, true} {
		s, d, _, fab := startStrategy(t, archive)
		for i := 0; i < 100; i++ {
			waitParked(t, d)
			parked, wakes := d.work.Parked(), d.work.Wakes()
			s.AppendDirect(1, inc, uint64(i), 1, 0)
			s.Flush()
			if got := fab.count(); got != i+1 {
				t.Fatalf("%s: %d packets on the wire after flush %d", s.Name(), got, i)
			}
			if d.work.Parked() != parked || d.work.Wakes() != wakes {
				t.Fatalf("%s: flush %d woke the aggregator: %d parked (was %d), %d wakes (was %d)",
					s.Name(), i, d.work.Parked(), parked, d.work.Wakes(), wakes)
			}
		}
	}
}
