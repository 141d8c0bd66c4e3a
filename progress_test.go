package gravel_test

import (
	"net"
	"sync"
	"syscall"
	"testing"
	"time"

	"gravel"
	"gravel/internal/apps/gups"
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
