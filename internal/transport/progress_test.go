package transport

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"gravel/internal/fabric"
	"gravel/internal/timemodel"
)

// A thread parked on a fabric's Progress event until Quiet is what
// Cluster.Quiesce is. These tests park one on purpose and then produce
// the state change that must release it; a missing wake edge leaves it
// parked, so every wait is under a deadline.

// parkOnQuiet parks a goroutine on f until Quiet and returns a channel
// that yields what ended the wait: nil for quiet, or the error Quiet
// panicked (how a failed transport unwinds Step).
func parkOnQuiet(f fabric.Fabric) <-chan error {
	out := make(chan error, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				err, ok := r.(error)
				if !ok {
					err = fmt.Errorf("%v", r)
				}
				out <- err
			}
		}()
		f.Progress().Wait(f.Quiet)
		out <- nil
	}()
	return out
}

// awaitParked blocks until a waiter is parked on f.
func awaitParked(t *testing.T, f fabric.Fabric) {
	t.Helper()
	for t0 := time.Now(); f.Progress().Parked() == 0; runtime.Gosched() {
		if time.Since(t0) > 10*time.Second {
			t.Fatal("the waiter never parked")
		}
	}
}

func released(t *testing.T, what string, out <-chan error, within time.Duration) error {
	t.Helper()
	select {
	case err := <-out:
		return err
	case <-time.After(within):
		t.Fatalf("%s: the parked waiter was not released within %v", what, within)
		return nil
	}
}

// TestQuietWaiterWakesOnLastDone: on every fabric, a waiter parked
// behind packets being applied is released by the Done that retires the
// last one, and not before.
func TestQuietWaiterWakesOnLastDone(t *testing.T) {
	for _, r := range rigs {
		t.Run(r.name, func(t *testing.T) {
			rig := r.build(t, 1)
			from, to := rig.at(0), rig.at(1)
			from.Send(0, 1, incBuf(1, 1), 1)
			from.Send(0, 1, incBuf(2, 1), 1)
			var held []fabric.Packet
			for len(held) < 2 {
				select {
				case p := <-to.BankInbox(1, 0):
					held = append(held, p)
				case <-time.After(10 * time.Second):
					t.Fatalf("%d of 2 packets delivered", len(held))
				}
			}
			out := parkOnQuiet(to)
			awaitParked(t, to)
			to.Done(held[0])
			select {
			case err := <-out:
				t.Fatalf("released with a packet still being applied (err %v)", err)
			case <-time.After(20 * time.Millisecond):
			}
			// A TCP cluster is quiet only once every process votes, so
			// there the sending side waits too (parked on its peer's
			// ballot alone: locally it is idle already).
			var sender <-chan error
			if from != to {
				sender = parkOnQuiet(from)
			}
			to.Done(held[1])
			if err := released(t, "last Done", out, 10*time.Second); err != nil {
				t.Fatalf("Quiet panicked: %v", err)
			}
			if sender != nil {
				if err := released(t, "peer's report", sender, 10*time.Second); err != nil {
					t.Fatalf("sender's Quiet panicked: %v", err)
				}
			}
		})
	}
}

// TestQuietWaiterWakesOnAck: a TCP sender whose frames are delivered
// but not yet acknowledged keeps its process busy; the ack that empties
// the window is the only event that can release a waiter parked on it.
// The receiver's inbox is left full so the tail of the burst cannot be
// delivered, and so not acknowledged, until the test drains it.
func TestQuietWaiterWakesOnAck(t *testing.T) {
	fabs := newTCPCluster(t, 2)
	defer closeAll(fabs)
	const frames = recvQueueFrames + 8
	for i := 0; i < frames; i++ {
		fabs[0].Send(0, 1, incBuf(uint64(i), 1), 1)
	}
	for t0 := time.Now(); len(fabs[1].Inbox(1)) < recvQueueFrames; runtime.Gosched() {
		if time.Since(t0) > 10*time.Second {
			t.Fatalf("inbox holds %d of %d frames", len(fabs[1].Inbox(1)), recvQueueFrames)
		}
	}
	sender := parkOnQuiet(fabs[0])
	awaitParked(t, fabs[0])
	for i := 0; i < frames; i++ {
		fabs[1].Done(<-fabs[1].Inbox(1))
	}
	receiver := parkOnQuiet(fabs[1])
	for side, out := range map[string]<-chan error{"sender": sender, "receiver": receiver} {
		if err := released(t, side, out, 10*time.Second); err != nil {
			t.Fatalf("%s's Quiet panicked: %v", side, err)
		}
	}
}

// failingPair builds a 2-node TCP cluster with a short suspect timeout
// and returns it with its coordinator.
func failingPair(t *testing.T) ([]*TCP, *Coordinator, net.Listener) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c := NewCoordinator(2)
	go c.Serve(ln)
	t.Cleanup(func() { ln.Close() })
	fabs := make([]*TCP, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := range fabs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fabs[i], errs[i] = NewTCP(timemodel.Default(), newClocks(2), fabric.Options{
				Self:              i,
				Coord:             ln.Addr().String(),
				SuspectTimeout:    500 * time.Millisecond,
				HeartbeatInterval: 100 * time.Millisecond,
				CoordRPCTimeout:   time.Second,
			})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("fabric %d: %v", i, err)
		}
	}
	return fabs, c, ln
}

// TestParkedQuietWaiterUnwindsOnFailure: whatever fails the transport
// must wake a parked waiter into Quiet's typed panic. Each case parks
// the waiter where nothing else could release it.
func TestParkedQuietWaiterUnwindsOnFailure(t *testing.T) {
	const limit = 5 * time.Second // suspect timeout 500 ms, RPC deadline 1 s

	t.Run("kill", func(t *testing.T) {
		fabs, _, _ := failingPair(t)
		defer fabs[1].Kill()
		// A packet in node 0's inbox that nobody applies: not idle, so
		// the waiter parks with nothing but the kill to wake it.
		fabs[1].Send(1, 0, incBuf(1, 1), 1)
		<-fabs[0].Inbox(0)
		out := parkOnQuiet(fabs[0])
		awaitParked(t, fabs[0])
		fabs[0].Kill()
		if err := released(t, "Kill", out, limit); err == nil || fabs[0].Err() == nil {
			t.Fatalf("waiter ended with %v, transport error %v; want the kill", err, fabs[0].Err())
		}
	})

	t.Run("severed peer", func(t *testing.T) {
		fabs, _, _ := failingPair(t)
		defer fabs[0].Kill()
		// The peer dies holding no ack for this frame: the sender stays
		// busy, so only the suspect check's fail can release the waiter.
		fabs[1].Kill()
		fabs[0].Send(0, 1, incBuf(1, 1), 1)
		out := parkOnQuiet(fabs[0])
		awaitParked(t, fabs[0])
		var pd *PeerDownError
		if err := released(t, "peer death", out, limit); !errors.As(err, &pd) || pd.Node != 1 {
			t.Fatalf("waiter ended with %v, want a PeerDownError naming node 1", err)
		}
	})

	t.Run("coordinator gone", func(t *testing.T) {
		fabs, coord, ln := failingPair(t)
		defer fabs[0].Kill()
		defer fabs[1].Kill()
		// Node 1 never votes, so node 0 is locally idle in a cluster
		// that is not quiet: parked until a heartbeat finds the
		// coordinator gone.
		fabs[0].Send(0, 1, incBuf(1, 1), 1)
		fabs[1].Done(<-fabs[1].Inbox(1))
		out := parkOnQuiet(fabs[0])
		awaitParked(t, fabs[0])
		ln.Close()
		coord.Kill()
		var cd *CoordDownError
		if err := released(t, "coordinator death", out, limit); !errors.As(err, &cd) {
			t.Fatalf("waiter ended with %v, want a CoordDownError", err)
		}
	})
}
