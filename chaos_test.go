package gravel_test

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"gravel"
	"gravel/internal/apps/gups"
	"gravel/internal/core"
	"gravel/internal/rt"
	"gravel/internal/transport"
)

// Chaos tests: the TCP fabric must hide every recoverable injected
// fault (bit-exact results under drops, duplicates, delays,
// reordering, corruption, and severs) and fail fast with typed errors
// on unrecoverable ones (a killed worker, a dead coordinator). All are
// skipped under -short; `gravel-node -chaos` is the multi-process twin.

func startChaosCoord(t *testing.T, n int) (*transport.Coordinator, string, func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c := transport.NewCoordinator(n)
	go c.Serve(ln)
	return c, ln.Addr().String(), func() { ln.Close() }
}

// nodeRun is one in-process TCP cluster member's lifecycle and outcome.
type nodeRun struct {
	sys          gravel.System
	tcp          *transport.TCP
	local, total uint64
	err          error
	// startErr snapshots err at startup so the kill tests can check it
	// mid-run (ordered by startWG) while the node goroutine keeps
	// writing err.
	startErr error
}

// start builds the node's system and transport, recovering the typed
// panics the runtime uses for transport failure into r.err.
func (r *nodeRun) start(i, n int, coordAddr string, faults *gravel.FaultConfig, opts gravel.TransportOptions) bool {
	defer r.recoverErr()
	opts.Self = i
	opts.Coord = coordAddr
	opts.Faults = faults
	r.sys = gravel.New(gravel.Config{
		Nodes:         n,
		Transport:     "tcp",
		TransportOpts: opts,
	})
	r.tcp = r.sys.(interface{ Fabric() core.Fabric }).Fabric().(*transport.TCP)
	return true
}

func (r *nodeRun) recoverErr() {
	if rec := recover(); rec != nil {
		if e, ok := rec.(error); ok {
			r.err = e
		} else {
			r.err = fmt.Errorf("%v", rec)
		}
	}
}

func (r *nodeRun) close() {
	if r.sys != nil {
		r.sys.Close()
	}
}

// closeRuns closes every node at once, as the processes of a real
// cluster shut down. A healthy TCP Close waits up to its drain timeout
// for the peers' FINs, so closing the nodes one after another makes
// each wait out the peers that have not started closing yet.
func closeRuns(runs []nodeRun) {
	var wg sync.WaitGroup
	for i := range runs {
		wg.Add(1)
		go func(r *nodeRun) {
			defer wg.Done()
			r.close()
		}(&runs[i])
	}
	wg.Wait()
}

var chaosInProcGUPS = gups.Config{
	TableSize:      1 << 12,
	UpdatesPerNode: 1 << 10,
	Seed:           7,
	Steps:          2,
}

func chanRefSum(t *testing.T, n int, cfg gups.Config) uint64 {
	t.Helper()
	ref := gravel.New(gravel.Config{Nodes: n})
	defer ref.Close()
	return gups.Run(ref, cfg).Sum
}

// runFaultedCluster runs GUPS on an n-node in-process TCP cluster with
// the given fault schedule and returns the per-node outcomes.
func runFaultedCluster(t *testing.T, n int, faults *gravel.FaultConfig) []nodeRun {
	t.Helper()
	_, addr, stop := startChaosCoord(t, n)
	defer stop()
	runs := make([]nodeRun, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := &runs[i]
			if !r.start(i, n, addr, faults, gravel.TransportOptions{
				// Generous detection margins: every injected fault in the
				// schedule must be recovered, never escalated.
				SuspectTimeout:    20 * time.Second,
				HeartbeatInterval: 5 * time.Second,
			}) {
				return
			}
			defer r.recoverErr()
			r.local = gups.RunAt(r.sys, chaosInProcGUPS, rt.Where{Node: i}).Sum
			r.total, r.err = r.tcp.Collectives().AllReduce("gups:sum", rt.WorldTeam, rt.OpSum, r.local)
		}(i)
	}
	wg.Wait()
	return runs
}

// TestChaosScheduleBitExact runs the acceptance fault schedule — 2%
// drop, 1% dup, 1% reorder, 0.5% corruption, delays up to 5ms, one
// sever per link — over a 4-node TCP cluster and requires the result
// to be bit-exact with the in-process channel fabric.
func TestChaosScheduleBitExact(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test skipped in -short mode")
	}
	const n = 4
	want := chanRefSum(t, n, chaosInProcGUPS)
	faults := &gravel.FaultConfig{
		Seed:     1,
		Drop:     0.02,
		Dup:      0.01,
		Reorder:  0.01,
		Corrupt:  0.005,
		Delay:    0.2,
		DelayMax: 5 * time.Millisecond,
		Sever:    0.002,
		SeverMax: 1,
	}
	runs := runFaultedCluster(t, n, faults)
	defer closeRuns(runs)
	var sum uint64
	for i := range runs {
		r := &runs[i]
		if r.err != nil {
			t.Fatalf("node %d failed under the recoverable schedule: %v", i, r.err)
		}
		if r.total != want {
			t.Fatalf("node %d reduced sum %d, want %d", i, r.total, want)
		}
		sum += r.local
	}
	if sum != want {
		t.Fatalf("local sums add to %d, want %d", sum, want)
	}
}

// TestChaosCorruptionCountedAndRecovered injects aggressive payload
// corruption: the frame CRC must catch every flip, the receiver must
// count each in Stats.Transport.CorruptFrames, and retransmission must keep
// the result bit-exact.
func TestChaosCorruptionCountedAndRecovered(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test skipped in -short mode")
	}
	const n = 4
	want := chanRefSum(t, n, chaosInProcGUPS)
	runs := runFaultedCluster(t, n, &gravel.FaultConfig{Seed: 9, Corrupt: 0.25})
	defer closeRuns(runs)
	var sum uint64
	var corrupt, reconnects int64
	for i := range runs {
		r := &runs[i]
		if r.err != nil {
			t.Fatalf("node %d failed under corruption: %v", i, r.err)
		}
		if r.total != want {
			t.Fatalf("node %d reduced sum %d, want %d", i, r.total, want)
		}
		sum += r.local
		s := r.sys.Stats().Transport
		corrupt += s.CorruptFrames
		reconnects += s.Reconnects
	}
	if sum != want {
		t.Fatalf("local sums add to %d, want %d", sum, want)
	}
	if corrupt == 0 {
		t.Fatal("corruption schedule injected but no CorruptFrames counted — CRC path not exercised")
	}
	if reconnects == 0 {
		t.Fatal("corrupt frames must force retransmit via reconnect, but no reconnects happened")
	}
}

// TestHealthyClusterClosesConcurrently: the nodes of a healthy 4-node
// TCP cluster that has exchanged traffic every way close within a
// second or two when they close together: each node's drain finds its
// peers' FINs already coming, instead of waiting them out.
func TestHealthyClusterClosesConcurrently(t *testing.T) {
	const n = 4
	runs := runFaultedCluster(t, n, nil)
	for i := range runs {
		if runs[i].err != nil {
			closeRuns(runs)
			t.Fatalf("node %d failed: %v", i, runs[i].err)
		}
	}
	start := time.Now()
	closeRuns(runs)
	if d := time.Since(start); d >= 2*time.Second {
		t.Fatalf("closing a healthy %d-node cluster took %v, want < 2s", n, d)
	}
}

// chaosKillGUPS is one long launch — hundreds of steps of quiesce and
// barrier traffic — so the mid-run kill always lands inside it. It must
// be a single RunAt, not a repeat loop: each run allocates a fresh
// pgas array, and barrier release is asymmetric, so a repeat loop races
// one node's next-iteration updates against another node's not-yet-run
// Alloc.
var chaosKillGUPS = gups.Config{
	TableSize:      1 << 12,
	UpdatesPerNode: 400 << 8,
	Seed:           7,
	Steps:          400,
}

// chaosRun drives the long launch; the kill is expected to unwind it
// with a typed panic, recovered into r.err.
func (r *nodeRun) chaosRun() {
	defer r.recoverErr()
	gups.RunAt(r.sys, chaosKillGUPS, rt.Where{Node: r.tcp.Self()})
	r.err = fmt.Errorf("no transport failure surfaced before the run completed")
}

// chaosKillAt is where the kill tests land their kill: once a node has
// sent this many records, an eighth of chaosKillGUPS's updates, its run
// is under way with most of its steps still ahead.
var chaosKillAt = int64(chaosKillGUPS.UpdatesPerNode / 8)

// awaitProgress returns once node's ledger has sent records records,
// and fails the test if the run ends first: a kill landing on a
// finished run tests nothing.
func awaitProgress(t *testing.T, runs []nodeRun, node int, records int64, runDone <-chan struct{}) {
	t.Helper()
	ledger := runs[node].sys.(interface{ Node(int) *core.Node }).Node(node).Clocks
	for ledger.Departed() < records {
		select {
		case <-runDone:
			t.Fatalf("the run ended before node %d sent %d records (it sent %d): the kill cannot land mid-run",
				node, records, ledger.Departed())
		case <-time.After(time.Millisecond):
		}
	}
}

// waitGoroutines polls until the goroutine count returns near base,
// dumping all stacks if it never does — the no-leak check for the
// failure paths.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base+5 {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	m := runtime.Stack(buf, true)
	t.Fatalf("goroutines leaked after failure teardown: %d, base %d\n%s",
		runtime.NumGoroutine(), base, buf[:m])
}

const chaosSuspect = 500 * time.Millisecond

func chaosKillOpts() gravel.TransportOptions {
	return gravel.TransportOptions{
		SuspectTimeout:    chaosSuspect,
		HeartbeatInterval: chaosSuspect / 4,
		CoordRPCTimeout:   time.Second,
	}
}

// TestChaosWorkerKillSurfacesPeerDown kills one node's transport
// mid-run (the in-process stand-in for SIGKILLing a worker) and
// requires every survivor's Step to unwind with a typed PeerDownError
// within twice the suspect timeout, leaking nothing.
func TestChaosWorkerKillSurfacesPeerDown(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test skipped in -short mode")
	}
	const n = 4
	base := runtime.NumGoroutine()
	_, addr, stop := startChaosCoord(t, n)
	defer stop()

	runs := make([]nodeRun, n)
	var startWG, runWG sync.WaitGroup
	for i := 0; i < n; i++ {
		startWG.Add(1)
		runWG.Add(1)
		go func(i int) {
			defer runWG.Done()
			r := &runs[i]
			ok := r.start(i, n, addr, nil, chaosKillOpts())
			r.startErr = r.err
			startWG.Done()
			if !ok {
				return
			}
			r.chaosRun()
		}(i)
	}
	startWG.Wait()
	for i := range runs {
		if runs[i].startErr != nil {
			t.Fatalf("node %d failed to start: %v", i, runs[i].startErr)
		}
	}
	runDone := make(chan struct{})
	go func() { runWG.Wait(); close(runDone) }()
	const victim = n - 1
	awaitProgress(t, runs, victim, chaosKillAt, runDone)
	killedAt := time.Now()
	runs[victim].tcp.Kill()
	<-runDone
	detection := time.Since(killedAt)

	for i := range runs {
		if i == victim {
			continue
		}
		var pd *transport.PeerDownError
		if !errors.As(runs[i].err, &pd) {
			t.Errorf("survivor %d got %v, want a PeerDownError", i, runs[i].err)
		} else if pd.Node != victim {
			t.Errorf("survivor %d blamed node %d, want %d (detector %s)", i, pd.Node, victim, pd.Detector)
		}
	}
	// The acceptance bound: typed errors within 2x the suspect timeout
	// (plus scheduling slack for the recovery unwind itself).
	if limit := 2*chaosSuspect + 2*time.Second; detection > limit {
		t.Errorf("survivors took %v to unwind, want <= %v", detection, limit)
	}
	closeRuns(runs)
	waitGoroutines(t, base)
}

// TestChaosCoordinatorDeathMidBarrier kills the coordinator mid-run:
// every worker's Step must unwind with a typed CoordDownError within
// its RPC deadline, and teardown must leak no goroutines.
func TestChaosCoordinatorDeathMidBarrier(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test skipped in -short mode")
	}
	const n = 4
	base := runtime.NumGoroutine()
	coord, addr, stop := startChaosCoord(t, n)
	defer stop()

	runs := make([]nodeRun, n)
	var startWG, runWG sync.WaitGroup
	for i := 0; i < n; i++ {
		startWG.Add(1)
		runWG.Add(1)
		go func(i int) {
			defer runWG.Done()
			r := &runs[i]
			ok := r.start(i, n, addr, nil, chaosKillOpts())
			r.startErr = r.err
			startWG.Done()
			if !ok {
				return
			}
			r.chaosRun()
		}(i)
	}
	startWG.Wait()
	for i := range runs {
		if runs[i].startErr != nil {
			t.Fatalf("node %d failed to start: %v", i, runs[i].startErr)
		}
	}
	runDone := make(chan struct{})
	go func() { runWG.Wait(); close(runDone) }()
	awaitProgress(t, runs, 0, chaosKillAt, runDone) // land the kill mid-run
	killedAt := time.Now()
	stop()       // no new coordinator connections
	coord.Kill() // sever the established ones
	<-runDone
	detection := time.Since(killedAt)

	for i := range runs {
		var cd *transport.CoordDownError
		if !errors.As(runs[i].err, &cd) {
			t.Errorf("worker %d got %v, want a CoordDownError", i, runs[i].err)
		}
	}
	if limit := 2*chaosSuspect + 2*time.Second; detection > limit {
		t.Errorf("workers took %v to unwind, want <= %v", detection, limit)
	}
	closeRuns(runs)
	waitGoroutines(t, base)
}
