package gravel_test

import (
	"fmt"
	"net"
	"sync"
	"testing"

	"gravel"
	"gravel/internal/apps/gups"
	"gravel/internal/core"
	"gravel/internal/harness"
	"gravel/internal/rt"
	"gravel/internal/transport"
)

// The transport must be invisible to applications: the same GUPS run
// must produce the same table sum on every fabric.

var distGUPS = gups.Config{
	TableSize:      1 << 12,
	UpdatesPerNode: 1 << 10,
	Seed:           7,
	Steps:          2,
}

func TestTransportsRegistered(t *testing.T) {
	names := map[string]bool{}
	for _, n := range gravel.Transports() {
		names[n] = true
	}
	for _, want := range []string{"chan", "loopback", "tcp"} {
		if !names[want] {
			t.Errorf("transport %q not registered (have %v)", want, gravel.Transports())
		}
	}
}

// TestLoopbackMatchesChan swaps the default channel fabric for the
// loopback transport (real wire framing, in-process) through the public
// Config and expects bit-identical application results — at one
// resolver shard (the serial network thread) and at four (banked
// receive-side resolution), which must also agree with each other.
func TestLoopbackMatchesChan(t *testing.T) {
	ref := gravel.New(gravel.Config{Nodes: 4})
	want := gups.Run(ref, distGUPS).Sum
	ref.Close()

	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			lb := gravel.New(gravel.Config{Nodes: 4, Transport: "loopback", ResolverShards: shards})
			got := gups.Run(lb, distGUPS).Sum
			stats := lb.Stats().Transport
			lb.Close()

			if got != want {
				t.Fatalf("loopback GUPS sum = %d, chan fabric = %d", got, want)
			}
			var pkts int64
			for _, d := range stats.PerDest {
				pkts += d.Packets
			}
			if pkts == 0 {
				t.Fatal("loopback run sent no wire packets — framing path not exercised")
			}
		})
	}
}

// TestEveryModelMatchesOverLoopback runs every networking model over
// the loopback transport (in-process, real wire framing) and requires
// application results bit-identical to the default channel fabric:
// the model × fabric axes must be fully independent.
func TestEveryModelMatchesOverLoopback(t *testing.T) {
	a := harness.MustApp("gups")
	p := harness.Params{Scale: 0.02}
	for _, model := range gravel.Models() {
		model := model
		t.Run(model, func(t *testing.T) {
			t.Parallel()
			ref := gravel.New(gravel.Config{Model: model, Nodes: 3})
			want := a.Run(ref, rt.Whole(), p)
			ref.Close()
			if want.Err != nil {
				t.Fatalf("chan run failed: %v", want.Err)
			}
			lb := gravel.New(gravel.Config{Model: model, Nodes: 3, Transport: "loopback"})
			got := a.Run(lb, rt.Whole(), p)
			lb.Close()
			if got.Err != nil {
				t.Fatalf("loopback run failed: %v", got.Err)
			}
			if got.Check != want.Check {
				t.Fatalf("loopback check = %d, chan fabric = %d", got.Check, want.Check)
			}
		})
	}
}

// TestTCPClusterMatchesChan runs a real 4-node TCP cluster — four full
// gravel.New instances, each hosting one node, joined through an
// in-process coordinator over localhost sockets — and checks that the
// reduced distributed sum equals the single-process channel fabric's.
// This is the in-test twin of `gravel-node -smoke` (which forks real OS
// processes).
func TestTCPClusterMatchesChan(t *testing.T) {
	const n = 4

	ref := gravel.New(gravel.Config{Nodes: n})
	want := gups.Run(ref, distGUPS).Sum
	ref.Close()

	// Run the cluster twice: once with the serial network thread and
	// once with four resolver banks per node. Both must match the chan
	// fabric bit-for-bit — sharding may only change wall time.
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			coord := transport.NewCoordinator(n)
			go coord.Serve(ln)
			defer ln.Close()

			locals := make([]uint64, n)
			totals := make([]uint64, n)
			errs := make([]error, n)
			var wg sync.WaitGroup
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					sys := gravel.New(gravel.Config{
						Nodes:          n,
						Transport:      "tcp",
						ResolverShards: shards,
						TransportOpts: gravel.TransportOptions{
							Self:  i,
							Coord: ln.Addr().String(),
						},
					})
					defer sys.Close()
					locals[i] = gups.RunAt(sys, distGUPS, rt.Where{Node: i}).Sum
					tcp := sys.(interface{ Fabric() core.Fabric }).Fabric().(*transport.TCP)
					totals[i], errs[i] = tcp.Collectives().AllReduce("gups:sum", rt.WorldTeam, rt.OpSum, locals[i])
				}(i)
			}
			wg.Wait()

			var sum uint64
			for i := 0; i < n; i++ {
				if errs[i] != nil {
					t.Fatalf("node %d reduce: %v", i, errs[i])
				}
				if totals[i] != totals[0] {
					t.Fatalf("nodes disagree on the reduced sum: %d vs %d", totals[i], totals[0])
				}
				sum += locals[i]
			}
			if sum != want || totals[0] != want {
				t.Fatalf("TCP cluster sum = %d (reduced %d), chan fabric = %d", sum, totals[0], want)
			}
		})
	}
}

// TestTCPClusterCoprocessorMatchesSingle runs a baseline model — not
// just gravel — as a real multi-process-style TCP cluster through the
// shared harness registry's shard entry point, and requires the reduced
// checksum to match the single-process run bit-for-bit. This pins the
// tentpole contract: any model, any fabric, one registry.
func TestTCPClusterCoprocessorMatchesSingle(t *testing.T) {
	const n = 3
	a := harness.MustApp("gups")
	p := harness.Params{Scale: 0.02}

	ref := gravel.New(gravel.Config{Model: gravel.ModelCoprocessor, Nodes: n})
	want := a.Run(ref, rt.Whole(), p)
	ref.Close()
	if want.Err != nil {
		t.Fatalf("single-process run failed: %v", want.Err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	coord := transport.NewCoordinator(n)
	go coord.Serve(ln)
	defer ln.Close()

	locals := make([]uint64, n)
	totals := make([]uint64, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sys := gravel.New(gravel.Config{
				Model:     gravel.ModelCoprocessor,
				Nodes:     n,
				Transport: "tcp",
				TransportOpts: gravel.TransportOptions{
					Self:  i,
					Coord: ln.Addr().String(),
				},
			})
			defer sys.Close()
			tcp := sys.(interface{ Fabric() core.Fabric }).Fabric().(*transport.TCP)
			shard := a.Run(sys, rt.Where{Node: i, Coll: tcp.Collectives()}, p)
			if shard.Err != nil {
				errs[i] = shard.Err
				return
			}
			locals[i] = shard.Check
			totals[i], errs[i] = tcp.Collectives().AllReduce("gups:sum", rt.WorldTeam, rt.OpSum, shard.Check)
		}(i)
	}
	wg.Wait()

	var sum uint64
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("node %d: %v", i, errs[i])
		}
		if totals[i] != totals[0] {
			t.Fatalf("nodes disagree on the reduced check: %d vs %d", totals[i], totals[0])
		}
		sum += locals[i]
	}
	if sum != want.Check || totals[0] != want.Check {
		t.Fatalf("coprocessor TCP cluster check = %d (reduced %d), single-process = %d", sum, totals[0], want.Check)
	}
}

// TestTCPClusterArchiveMatchesSingle pins the archive aggregation
// strategy end to end: the gravel-archive model as a 3-node TCP cluster
// must reduce to the single-process checksum bit-for-bit, at one
// resolver shard and at four — the WF-aggregated appends, segment
// seals, fused bulk packets, and signal-liveness staging must all be
// invisible to the application on a real socket fabric.
func TestTCPClusterArchiveMatchesSingle(t *testing.T) {
	const n = 3
	a := harness.MustApp("gups")
	p := harness.Params{Scale: 0.02}

	ref := gravel.New(gravel.Config{Model: gravel.ModelGravelArchive, Nodes: n})
	want := a.Run(ref, rt.Whole(), p)
	ref.Close()
	if want.Err != nil {
		t.Fatalf("single-process run failed: %v", want.Err)
	}

	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			coord := transport.NewCoordinator(n)
			go coord.Serve(ln)
			defer ln.Close()

			locals := make([]uint64, n)
			totals := make([]uint64, n)
			errs := make([]error, n)
			var wg sync.WaitGroup
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					sys := gravel.New(gravel.Config{
						Model:          gravel.ModelGravelArchive,
						Nodes:          n,
						Transport:      "tcp",
						ResolverShards: shards,
						TransportOpts: gravel.TransportOptions{
							Self:  i,
							Coord: ln.Addr().String(),
						},
					})
					defer sys.Close()
					tcp := sys.(interface{ Fabric() core.Fabric }).Fabric().(*transport.TCP)
					shard := a.Run(sys, rt.Where{Node: i, Coll: tcp.Collectives()}, p)
					if shard.Err != nil {
						errs[i] = shard.Err
						return
					}
					locals[i] = shard.Check
					totals[i], errs[i] = tcp.Collectives().AllReduce("gups:sum", rt.WorldTeam, rt.OpSum, shard.Check)
				}(i)
			}
			wg.Wait()

			var sum uint64
			for i := 0; i < n; i++ {
				if errs[i] != nil {
					t.Fatalf("node %d: %v", i, errs[i])
				}
				if totals[i] != totals[0] {
					t.Fatalf("nodes disagree on the reduced check: %d vs %d", totals[i], totals[0])
				}
				sum += locals[i]
			}
			if sum != want.Check || totals[0] != want.Check {
				t.Fatalf("gravel-archive TCP cluster check = %d (reduced %d), single-process = %d", sum, totals[0], want.Check)
			}
		})
	}
}
