package gravel_test

import (
	"errors"
	"net"
	"sync"
	"syscall"
	"testing"
	"time"

	"gravel"
	"gravel/internal/apps/gups"
	"gravel/internal/core"
	"gravel/internal/rt"
	"gravel/internal/transport"
)

// cpuTime is the process's user + system CPU time so far.
func cpuTime(t *testing.T) time.Duration {
	t.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// TestIdleClusterBurnsNoCPU: a cluster between Steps has nothing to
// wait for, so its threads must be parked, not polling. Twenty
// milliseconds after a Step the whole process may use under 10 ms of
// CPU in the next 100 ms (two aggregator threads spinning on a yield
// used to burn 200 ms).
func TestIdleClusterBurnsNoCPU(t *testing.T) {
	cfg := gups.Config{TableSize: 1 << 12, UpdatesPerNode: 1 << 10, Seed: 3, Steps: 2}
	measure := func(t *testing.T) {
		t.Helper()
		time.Sleep(20 * time.Millisecond)
		before := cpuTime(t)
		time.Sleep(100 * time.Millisecond)
		if used := cpuTime(t) - before; used >= 10*time.Millisecond {
			t.Errorf("idle cluster used %v of CPU in 100 ms, want < 10 ms", used)
		}
	}
	for _, fab := range []string{"chan", "loopback"} {
		t.Run(fab, func(t *testing.T) {
			sys := gravel.New(gravel.Config{Nodes: 2, Transport: fab})
			defer sys.Close()
			gups.Run(sys, cfg)
			measure(t)
		})
	}
	t.Run("tcp", func(t *testing.T) {
		const n = 2
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		go transport.NewCoordinator(n).Serve(ln)
		var ran, measured sync.WaitGroup
		ran.Add(n)
		measured.Add(1)
		for i := 0; i < n; i++ {
			go func(i int) {
				sys := gravel.New(gravel.Config{
					Nodes:         n,
					Transport:     "tcp",
					TransportOpts: gravel.TransportOptions{Self: i, Coord: ln.Addr().String()},
				})
				defer sys.Close()
				gups.RunAt(sys, cfg, rt.Where{Node: i})
				ran.Done()
				measured.Wait()
			}(i)
		}
		ran.Wait()
		measure(t)
		measured.Done()
	})
}

// startChaosPair brings up a two-node in-process TCP cluster with the
// chaos tests' short failure-detection timeouts. Teardown kills both
// transports first, so closing never waits out a drain handshake with a
// dead peer.
func startChaosPair(t *testing.T) (runs []nodeRun, coord *transport.Coordinator, stop func()) {
	t.Helper()
	const n = 2
	coord, addr, stop := startChaosCoord(t, n)
	t.Cleanup(stop)
	runs = make([]nodeRun, n)
	var started sync.WaitGroup
	for i := range runs {
		started.Add(1)
		go func(i int) {
			defer started.Done()
			runs[i].start(i, n, addr, nil, chaosKillOpts())
		}(i)
	}
	started.Wait()
	for i := range runs {
		if runs[i].err != nil {
			t.Fatalf("node %d failed to start: %v", i, runs[i].err)
		}
	}
	t.Cleanup(func() {
		for i := range runs {
			runs[i].tcp.Kill()
			runs[i].close()
		}
	})
	return runs, coord, stop
}

// TestChaosParkedQuiesceUnwinds: the kill tests above land their fault
// wherever the run happens to be. Here node 0's Step is known to be
// parked inside Quiesce — node 1 has stopped stepping, so the cluster
// never reports quiet — when the transport is killed, the peer dies or
// the coordinator goes away; the Step must still unwind with the typed
// error inside the detection bound.
func TestChaosParkedQuiesceUnwinds(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test skipped in -short mode")
	}
	for _, tc := range []struct {
		name  string
		fault func(runs []nodeRun, coord *transport.Coordinator, stop func())
		check func(t *testing.T, err error)
	}{
		{"kill", func(runs []nodeRun, _ *transport.Coordinator, _ func()) { runs[0].tcp.Kill() },
			func(t *testing.T, err error) {
				if err == nil {
					t.Error("Step returned normally on a killed transport")
				}
			}},
		{"severed peer", func(runs []nodeRun, _ *transport.Coordinator, _ func()) { runs[1].tcp.Kill() },
			func(t *testing.T, err error) {
				var pd *transport.PeerDownError
				if !errors.As(err, &pd) || pd.Node != 1 {
					t.Errorf("Step unwound with %v, want a PeerDownError naming node 1", err)
				}
			}},
		{"coordinator gone", func(_ []nodeRun, coord *transport.Coordinator, stop func()) { stop(); coord.Kill() },
			func(t *testing.T, err error) {
				var cd *transport.CoordDownError
				if !errors.As(err, &cd) {
					t.Errorf("Step unwound with %v, want a CoordDownError", err)
				}
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			runs, coord, stop := startChaosPair(t)
			arr := runs[0].sys.Space().SymAlloc(32)
			runs[1].sys.Space().SymAlloc(32)
			step := func(r *nodeRun, grid []int) {
				defer r.recoverErr()
				r.sys.Step("inc", grid, 0, func(c rt.Ctx) {
					g := c.Group()
					idx := make([]uint64, g.Size)
					one := make([]uint64, g.Size)
					g.Vector(func(l int) { idx[l], one[l] = arr.SymIndex(1, l%32), 1 }) // node 1's bank
					c.Inc(arr, idx, one, nil)
				})
			}
			// One step together, then node 0 alone: its increments reach
			// node 1 and are applied, but node 1 is not there to report.
			var both sync.WaitGroup
			both.Add(1)
			go func() { defer both.Done(); step(&runs[1], []int{0, 0}) }()
			step(&runs[0], []int{256, 0})
			both.Wait()
			if runs[0].err != nil || runs[1].err != nil {
				t.Fatalf("first step failed: %v / %v", runs[0].err, runs[1].err)
			}
			done := make(chan struct{})
			go func() { defer close(done); step(&runs[0], []int{256, 0}) }()
			progress := runs[0].sys.(interface{ Fabric() core.Fabric }).Fabric().Progress()
			for t0 := time.Now(); progress.Parked() == 0; time.Sleep(100 * time.Microsecond) {
				if time.Since(t0) > 10*time.Second {
					t.Fatal("node 0's Quiesce never parked")
				}
			}
			tc.fault(runs, coord, stop)
			select {
			case <-done:
			case <-time.After(2*chaosSuspect + 2*time.Second):
				t.Fatal("the parked Step did not unwind inside the detection bound")
			}
			tc.check(t, runs[0].err)
		})
	}
}

// TestChaosWaitUntilUnwindsOnFailure: a kernel blocked in WaitUntil on
// a signal whose sender is gone used to spin forever — the launch never
// ended, so Step never reached the Quiesce that reports the failure.
// The wait must give up once the transport has failed, and Step unwind
// with the typed error.
func TestChaosWaitUntilUnwindsOnFailure(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test skipped in -short mode")
	}
	runs, _, _ := startChaosPair(t)
	sig := runs[0].sys.Space().SymAlloc(1)
	runs[1].sys.Space().SymAlloc(1)
	waiting := make(chan struct{})
	done := make(chan struct{})
	// Node 1 joins the step (its start barrier needs both) with an empty
	// grid and is then killed; node 0's kernel waits for a signal nobody
	// will send.
	var peer sync.WaitGroup
	peer.Add(1)
	go func() {
		defer peer.Done()
		defer runs[1].recoverErr()
		runs[1].sys.Step("wait", []int{0, 0}, 0, func(rt.Ctx) {})
	}()
	go func() {
		defer close(done)
		defer runs[0].recoverErr()
		runs[0].sys.Step("wait", []int{1, 0}, 0, func(c rt.Ctx) {
			g := c.Group()
			mask := make([]bool, g.Size)
			si := make([]uint64, g.Size)
			one := make([]uint64, g.Size)
			mask[0], si[0], one[0] = true, sig.SymIndex(0, 0), 1
			close(waiting)
			c.WaitUntil(sig, si, one, mask)
		})
	}()
	select {
	case <-waiting:
	case <-time.After(10 * time.Second):
		t.Fatal("node 0's kernel never started")
	}
	runs[1].tcp.Kill()
	select {
	case <-done:
	case <-time.After(2*chaosSuspect + 2*time.Second):
		t.Fatal("Step did not unwind: the kernel is still waiting for a signal from a dead peer")
	}
	peer.Wait()
	var pd *transport.PeerDownError
	if !errors.As(runs[0].err, &pd) || pd.Node != 1 {
		t.Errorf("Step unwound with %v, want a PeerDownError naming node 1", runs[0].err)
	}
}
