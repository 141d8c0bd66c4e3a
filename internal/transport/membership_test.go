package transport

import (
	"net"
	"sync"
	"testing"
	"time"

	"gravel/internal/fabric"
	"gravel/internal/timemodel"
)

// TestCoordinatorDoneSurvivesEpochs: every worker of an epoch saying
// goodbye closes Done once; a later epoch that also ends cleanly (the
// launcher relaunches after an epoch it counts as failed) must not
// close it again.
func TestCoordinatorDoneSurvivesEpochs(t *testing.T) {
	c := NewCoordinator(1)
	epoch := func() {
		t.Helper()
		gen := c.Generation()
		for _, req := range []*coordMsg{
			{Op: "join", Gen: gen, Addr: "127.0.0.1:1"},
			{Op: "bye", Gen: gen},
		} {
			if resp := c.dispatch(req); !resp.OK {
				t.Fatalf("%s at generation %d: %+v", req.Op, gen, resp)
			}
		}
	}
	epoch()
	select {
	case <-c.Done():
	default:
		t.Fatal("Done still open after the only worker said goodbye")
	}
	c.BeginEpoch(1)
	epoch() // panicked "close of closed channel"
}

// TestRedialBackoff pins the one backoff schedule: sleeps start at the
// initial bound, double until they pass the ceiling, carry less than
// 100 % jitter, and nonpositive bounds mean the defaults instead of a
// panic.
func TestRedialBackoff(t *testing.T) {
	for _, tc := range []struct {
		name         string
		initial, max time.Duration
		want         []time.Duration // lower bound of each sleep
	}{
		{"zero", 0, 0, []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond}},
		{"negative", -time.Second, -time.Second, []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond}},
		{"positive", time.Millisecond, 3 * time.Millisecond, []time.Duration{time.Millisecond, 2 * time.Millisecond, 4 * time.Millisecond, 4 * time.Millisecond}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var slept []time.Duration
			tries := 0
			redial(tc.initial, tc.max, func() bool {
				tries++
				return tries > len(tc.want)
			}, func(d time.Duration) bool {
				slept = append(slept, d)
				return false
			})
			if len(slept) != len(tc.want) {
				t.Fatalf("slept %v, want %d sleeps", slept, len(tc.want))
			}
			for i, d := range slept {
				if d < tc.want[i] || d >= 2*tc.want[i] {
					t.Fatalf("sleep %d = %v, want in [%v, %v)", i, d, tc.want[i], 2*tc.want[i])
				}
			}
		})
	}
	// An abandoned sleep ends the loop without another attempt.
	tries := 0
	redial(time.Millisecond, time.Millisecond, func() bool { tries++; return false }, func(time.Duration) bool { return true })
	if tries != 1 {
		t.Fatalf("%d attempts after the sleep was abandoned, want 1", tries)
	}
}

// TestTCPAdoptsCoordinatorGeneration: transports built without a
// generation join a coordinator that is already past its first epoch,
// stamp what it told them, and talk to each other and to it.
func TestTCPAdoptsCoordinatorGeneration(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	c := NewCoordinator(2)
	go c.Serve(ln)
	gen := c.BeginEpoch(2)

	fabs := make([]*TCP, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := range fabs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fabs[i], errs[i] = NewTCP(timemodel.Default(), newClocks(2), fabric.Options{Self: i, Coord: ln.Addr().String()})
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("fabric %d: %v", i, err)
		}
	}
	defer closeAll(fabs)
	for i, f := range fabs {
		if f.Generation() != gen {
			t.Fatalf("fabric %d stamps generation %d, coordinator is at %d", i, f.Generation(), gen)
		}
	}
	fabs[0].Send(0, 1, incBuf(7, 2), 1)
	select {
	case p := <-fabs[1].Inbox(1):
		fabs[1].Done(p)
	case <-time.After(5 * time.Second):
		t.Fatal("packet never delivered between adopted-generation peers")
	}
	waitQuiet(t, "adopted pair", func() bool { return allQuiet(fabs) })
}
