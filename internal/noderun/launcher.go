// Launcher-side lifecycle: realize a Spec as a running cluster —
// coordinator up, one worker per node, results collected and
// cross-checked. Extracted from cmd/gravel-node's smoke/chaos modes so
// gravel-server (and tests) can launch the same clusters through a Go
// API.
package noderun

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"os/exec"
	"sync"
	"sync/atomic"
	"time"

	"gravel"
	"gravel/internal/obs"
	"gravel/internal/transport"
)

// Coord is an in-process rendezvous coordinator bound to a live
// listener. Its listener closes itself once every worker has said
// goodbye.
type Coord struct {
	c  *transport.Coordinator
	ln net.Listener
}

// StartCoordinator listens on 127.0.0.1 and serves a rendezvous
// coordinator for a cluster of the given size.
func StartCoordinator(nodes int) (*Coord, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	c := transport.NewCoordinator(nodes)
	go c.Serve(ln)
	go func() {
		<-c.Done()
		ln.Close()
	}()
	return &Coord{c: c, ln: ln}, nil
}

// Addr is the coordinator's dialable address.
func (c *Coord) Addr() string { return c.ln.Addr().String() }

// Generation is the coordinator's current membership generation.
func (c *Coord) Generation() uint32 { return c.c.Generation() }

// BeginEpoch starts the next membership epoch with the given worker
// count, freezing the newest complete checkpoint as the epoch's
// restore point, and returns the new generation.
func (c *Coord) BeginEpoch(nodes int) uint32 { return c.c.BeginEpoch(nodes) }

// Rescale asks the running epoch to unwind at its next step barrier so
// the cluster can re-form with the given worker count.
func (c *Coord) Rescale(nodes int) uint32 { return c.c.Rescale(nodes) }

// Stop closes the listener: no new connections.
func (c *Coord) Stop() { c.ln.Close() }

// Kill stops the listener and severs every established coordinator
// connection — the chaos harness's coordinator-failure injection.
func (c *Coord) Kill() {
	c.ln.Close()
	c.c.Kill()
}

// Hooks observe a launched cluster while it runs. The chaos harness
// and the retry tests use them to kill pieces mid-run.
type Hooks struct {
	// CoordStarted fires once the rendezvous coordinator is serving.
	CoordStarted func(c *Coord)
	// WorkerStarted fires per launched worker with a kill switch:
	// SIGKILL for FabricExec workers, a transport kill for FabricTCP
	// worker goroutines. In an elastic run it fires again for every
	// relaunch of the node in a later epoch.
	WorkerStarted func(node int, kill func())
	// EpochStarted fires as each elastic epoch's workers launch, with
	// the epoch's generation and node count plus a rescale trigger:
	// calling rescale(n) asks the cluster to unwind at the next step
	// barrier and re-form with n workers (a planned epoch change, not
	// charged against the recovery budget).
	EpochStarted func(gen uint32, nodes int, rescale func(newNodes int))
}

// Launcher runs cluster Specs. The zero value is ready to use: exec
// workers re-exec the current binary (which must call MaybeWorkerMain
// at the top of main).
type Launcher struct {
	// Exe is the worker binary for FabricExec (default: this
	// executable).
	Exe string
	// Stderr capped per worker in RunResult (default 4 KiB).
	StderrCap int
	Hooks     Hooks
}

// Runner is anything that can execute a cluster run; the job-queue
// worker pool schedules onto one.
type Runner interface {
	Run(ctx context.Context, spec Spec) (*RunResult, error)
}

// Run executes the spec to completion on its fabric. The RunResult is
// non-nil whenever the cluster launched, even if workers failed — the
// per-worker statuses carry the diagnosis; the returned error is then
// the first *WorkerError.
//
// A cluster fabric runs as a sequence of membership epochs, each one
// gang of generation-stamped workers (execEpoch or tcpEpoch); a
// non-elastic run is its first epoch. Within an elastic epoch, workers
// checkpoint their shards to the coordinator at step barriers. When an
// epoch ends early — a worker died (the gang unwinds with typed
// transport errors) or a planned rescale was requested — the launcher
// begins a new epoch: the coordinator freezes the newest *complete*
// checkpoint as the restore point, bumps the generation (so stragglers
// of the dead epoch are rejected with typed StaleGenerationErrors
// rather than polluting the new one), and a fresh gang restores and
// continues. Determinism of the apps makes the healed run's reduced
// checksum bit-identical to an undisturbed run's.
func (l *Launcher) Run(ctx context.Context, spec Spec) (*RunResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	spec = spec.Normalized()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.Fabric == FabricLocal {
		return RunLocal(spec)
	}
	var exe string
	if spec.Fabric == FabricExec {
		var err error
		if exe, err = l.exe(); err != nil {
			return nil, err
		}
	}
	coord, err := StartCoordinator(spec.Nodes)
	if err != nil {
		return nil, err
	}
	defer coord.Stop()
	if l.Hooks.CoordStarted != nil {
		l.Hooks.CoordStarted(coord)
	}

	maxRec := spec.MaxRecoveries
	if maxRec == 0 {
		maxRec = 3
	} else if maxRec < 0 {
		maxRec = 0
	}

	// The launcher owns rescale intent: when an epoch unwinds after
	// wantNodes was set, the unwind is the planned membership change,
	// not a failure — no error-sniffing of worker exits needed.
	var wantNodes atomic.Int64

	start := time.Now()
	var epochLog []EpochStat
	recovered := 0
	nodes := spec.Nodes
	for {
		gen := coord.Generation()
		espec := spec
		espec.Nodes = nodes
		if spec.Elastic && l.Hooks.EpochStarted != nil {
			l.Hooks.EpochStarted(gen, nodes, func(n int) {
				if n > 0 {
					wantNodes.Store(int64(n))
					coord.Rescale(n)
				}
			})
		}
		epochStart := time.Now()
		var out []workerOutcome
		if spec.Fabric == FabricExec {
			if out, err = l.execEpoch(ctx, exe, espec, coord.Addr(), gen); err != nil {
				return nil, err
			}
		} else {
			out = l.tcpEpoch(ctx, espec, coord.Addr(), gen)
		}
		if !spec.Elastic {
			return assemble(spec, out, time.Since(start))
		}
		stat := EpochStat{Gen: gen, Nodes: nodes, WallNs: time.Since(epochStart).Nanoseconds()}

		if !anyFailed(out) {
			stat.Outcome = "completed"
			epochLog = append(epochLog, stat)
			res, err := assemble(espec, out, time.Since(start))
			if res != nil {
				res.Spec = spec
				res.Epochs = len(epochLog)
				res.Recovered = recovered
				res.EpochLog = epochLog
			}
			if err == nil && recovered > 0 && obs.Enabled() {
				obs.Emit(obs.KRecover, -1, int64(gen), int64(len(epochLog)), "")
			}
			return res, err
		}
		if ctx.Err() != nil {
			res, _ := assemble(espec, out, time.Since(start))
			if res != nil {
				res.Spec = spec
				res.Epochs = len(epochLog) + 1
				res.Recovered = recovered
				res.EpochLog = epochLog
			}
			return res, ctx.Err()
		}

		if want := int(wantNodes.Swap(0)); want > 0 {
			// Planned rescale: the epoch unwound at a step barrier with
			// typed RescaleErrors. Re-form at the new size.
			nodes = want
			stat.Outcome = "rescaled"
			epochLog = append(epochLog, stat)
			newGen := coord.BeginEpoch(nodes)
			if obs.Enabled() {
				obs.Emit(obs.KEpoch, -1, int64(newGen), int64(nodes), "rescale")
			}
			continue
		}

		// Unplanned loss: a worker died mid-step and the surviving gang
		// unwound with typed errors. Heal from the latest complete
		// checkpoint unless the recovery budget is spent.
		recovered++
		if recovered > maxRec {
			res, aerr := assemble(espec, out, time.Since(start))
			if res != nil {
				res.Spec = spec
				res.Epochs = len(epochLog) + 1
				res.Recovered = recovered - 1
				res.EpochLog = append(epochLog, stat)
			}
			if aerr == nil {
				aerr = fmt.Errorf("noderun: elastic run failed after %d recoveries", recovered-1)
			}
			return res, fmt.Errorf("noderun: recovery budget exhausted (%d): %w", maxRec, aerr)
		}
		stat.Outcome = "recovered"
		epochLog = append(epochLog, stat)
		newGen := coord.BeginEpoch(nodes)
		if obs.Enabled() {
			obs.Emit(obs.KEpoch, -1, int64(newGen), int64(nodes), "recover")
		}
	}
}

// workerOutcome is the collection slot both fabrics fill per node.
type workerOutcome struct {
	res    WorkerResult
	err    error
	stderr string
}

// execEpoch launches one gang of OS-process workers (one per
// spec.Nodes, stamped with gen), each re-execing the worker binary with
// the spec in WorkerEnv, and harvests their JSON result lines.
func (l *Launcher) execEpoch(ctx context.Context, exe string, spec Spec, coordAddr string, gen uint32) ([]workerOutcome, error) {
	out := make([]workerOutcome, spec.Nodes)
	var wg sync.WaitGroup
	for i := 0; i < spec.Nodes; i++ {
		env, err := json.Marshal(workerEnvDoc{Node: i, Coord: coordAddr, Spec: spec, Gen: gen})
		if err != nil {
			return nil, err
		}
		cmd := exec.CommandContext(ctx, exe)
		cmd.Env = append(os.Environ(), WorkerEnv+"="+string(env))
		var stdout, stderr bytes.Buffer
		cmd.Stdout = &stdout
		cmd.Stderr = &stderr
		if err := cmd.Start(); err != nil {
			return nil, fmt.Errorf("noderun: worker %d: %w", i, err)
		}
		if l.Hooks.WorkerStarted != nil {
			proc := cmd.Process
			l.Hooks.WorkerStarted(i, func() { proc.Kill() })
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			err := cmd.Wait()
			out[i].stderr = tail(stderr.Bytes(), l.stderrCap())
			if err != nil {
				out[i].err = err
				return
			}
			if jerr := json.Unmarshal(stdout.Bytes(), &out[i].res); jerr != nil {
				out[i].err = fmt.Errorf("bad worker output %q: %w", stdout.String(), jerr)
			}
		}(i)
	}
	wg.Wait()
	return out, nil
}

// tcpEpoch launches one gang of worker goroutines (one per spec.Nodes,
// stamped with gen) over the real TCP transport and waits for all of
// them. A context cancellation kills every worker's transport,
// unwinding their Step goroutines with typed errors within the
// detector bound.
func (l *Launcher) tcpEpoch(ctx context.Context, spec Spec, coordAddr string, gen uint32) []workerOutcome {
	out := make([]workerOutcome, spec.Nodes)
	killers := make([]*killer, spec.Nodes)
	var wg sync.WaitGroup
	for i := 0; i < spec.Nodes; i++ {
		k := &killer{}
		killers[i] = k
		if l.Hooks.WorkerStarted != nil {
			l.Hooks.WorkerStarted(i, k.kill)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var diag bytes.Buffer
			res, err := RunWorker(WorkerConfig{
				Node:  i,
				Coord: coordAddr,
				Spec:  spec,
				Gen:   gen,
				Diag:  &diag,
				OnSystem: func(_ gravel.System, tcp *transport.TCP) {
					k.bind(func() { tcp.Kill() })
				},
			})
			out[i] = workerOutcome{res: res, err: err, stderr: tail(diag.Bytes(), l.stderrCap())}
		}(i)
	}
	stop := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			for _, k := range killers {
				k.kill()
			}
		case <-stop:
		}
	}()
	wg.Wait()
	close(stop)
	return out
}

func (l *Launcher) exe() (string, error) {
	if l.Exe != "" {
		return l.Exe, nil
	}
	return os.Executable()
}

// anyFailed reports whether any worker of an epoch failed.
func anyFailed(out []workerOutcome) bool {
	for i := range out {
		if out[i].err != nil {
			return true
		}
	}
	return false
}

func (l *Launcher) stderrCap() int {
	if l.StderrCap > 0 {
		return l.StderrCap
	}
	return 4096
}

func tail(b []byte, n int) string {
	if len(b) > n {
		b = b[len(b)-n:]
	}
	return string(b)
}

// killer is a kill switch that may be pulled before its target exists:
// binding a target after the switch was pulled fires immediately.
type killer struct {
	mu     sync.Mutex
	fn     func()
	killed bool
}

func (k *killer) kill() {
	k.mu.Lock()
	k.killed = true
	fn := k.fn
	k.mu.Unlock()
	if fn != nil {
		fn()
	}
}

func (k *killer) bind(fn func()) {
	k.mu.Lock()
	k.fn = fn
	killed := k.killed
	k.mu.Unlock()
	if killed {
		fn()
	}
}

// assemble cross-checks the collected worker outcomes and folds them
// into one RunResult: every finished worker must report the same
// reduced sum, and when all finished their local sums must add to it.
func assemble(spec Spec, out []workerOutcome, wall time.Duration) (*RunResult, error) {
	res := &RunResult{Spec: spec, WallNs: wall.Nanoseconds()}
	var firstErr error
	var localTotal uint64
	succeeded := 0
	for i := range out {
		o := &out[i]
		ws := WorkerStatus{Node: i}
		if o.err != nil {
			ws.Err = o.err.Error()
			ws.Stderr = o.stderr
			if firstErr == nil {
				firstErr = &WorkerError{Node: i, Stderr: o.stderr, Err: o.err}
			}
		} else {
			r := o.res
			ws.Result = &r
			localTotal += r.LocalSum
			res.WirePackets += r.Sent
			res.Reconnects += r.Recon
			if r.Ns > res.Ns {
				res.Ns = r.Ns
			}
			if succeeded == 0 {
				res.Check = r.TotalSum
				res.Summary = r.Summary
			} else if r.TotalSum != res.Check {
				return res, fmt.Errorf("noderun: workers disagree on the reduced sum: %d vs %d", r.TotalSum, res.Check)
			}
			succeeded++
		}
		res.Workers = append(res.Workers, ws)
	}
	if firstErr != nil {
		return res, firstErr
	}
	if succeeded == len(out) && localTotal != res.Check {
		return res, fmt.Errorf("noderun: local sums add to %d, reduced sum is %d", localTotal, res.Check)
	}
	return res, nil
}
