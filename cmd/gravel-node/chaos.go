package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"gravel/internal/harness"
	"gravel/internal/noderun"
	"gravel/internal/transport/fault"
)

// The chaos harness proves the distributed runtime's failure story
// end to end, with real processes (noderun's exec fabric):
//
//   - recoverable iterations run the 4-process GUPS smoke under a
//     seeded fault schedule (drops, duplicates, delays, reordering,
//     corruption, severs) and require the reduced sum to stay
//     bit-exact with the in-process fabric — the transport must hide
//     every recoverable fault;
//   - kill-worker iterations SIGKILL one worker mid-run and require
//     every survivor to exit nonzero with a typed diagnosis within
//     the failure detector's bound — an unrecoverable fault must
//     fail fast, not hang;
//   - kill-coordinator iterations sever every coordinator connection
//     mid-run and require the same of all workers;
//   - heal-worker iterations (elastic apps)
//     SIGKILL one worker of an elastic run and require the launcher to
//     recover from the latest checkpoint and finish bit-exact — the
//     failure story must extend past diagnosis into repair.
//
// Every iteration's fault schedule derives deterministically from
// -seed, so a failure report names the exact schedule to replay.

// chaosSuspect is the failure-detection timeout chaos workers run
// with; kills must be diagnosed within twice this (plus process
// overhead).
const chaosSuspect = time.Second

// chaosSpec is the exec-fabric spec every chaos iteration starts from.
func chaosSpec() noderun.Spec {
	s := specFromFlags()
	s.Fabric = noderun.FabricExec
	return s
}

// refSum computes (once) the selected app's checksum on the in-process
// channel fabric — the bit-exactness reference for every recoverable
// iteration.
var refSumOnce struct {
	sync.Once
	sum uint64
}

func chaosRefSum() uint64 {
	refSumOnce.Do(func() {
		s := chaosSpec()
		s.Fabric = noderun.FabricLocal
		ref, err := noderun.RunLocal(s)
		if err != nil {
			panic(err)
		}
		refSumOnce.sum = ref.Check
	})
	return refSumOnce.sum
}

// chaosSchedule is the canonical recoverable schedule (the acceptance
// schedule: 2% drop, 1% dup, delays up to 5ms, at most one sever per
// link), seeded per iteration, with corruption added so the CRC path
// is exercised too.
func chaosSchedule(iterSeed uint64) *fault.Config {
	return &fault.Config{
		Seed:     iterSeed,
		Drop:     0.02,
		Dup:      0.01,
		Reorder:  0.01,
		Corrupt:  0.005,
		Delay:    0.2,
		DelayMax: 5 * time.Millisecond,
		Sever:    0.002,
		SeverMax: 1,
	}
}

// workerFailures formats every failed worker's diagnosis for a chaos
// error report.
func workerFailures(res *noderun.RunResult) string {
	if res == nil {
		return ""
	}
	var b strings.Builder
	for _, w := range res.Workers {
		if w.Err == "" {
			continue
		}
		fmt.Fprintf(&b, "\nworker %d: %s\nstderr:\n%s", w.Node, w.Err, w.Stderr)
	}
	return b.String()
}

// chaosRecoverable runs the fault-schedule iteration: every worker
// must exit zero and the reduced sum must match the in-process fabric
// bit-exactly.
func chaosRecoverable(iterSeed uint64) error {
	fc := chaosSchedule(iterSeed)
	s := chaosSpec()
	s.Faults = fc.String()
	s.Suspect = 20 * time.Second // generous: injected faults must recover, not trip detection
	var l noderun.Launcher
	res, err := l.Run(context.Background(), s)
	if err != nil {
		return fmt.Errorf("under schedule %q: %w%s", fc.String(), err, workerFailures(res))
	}
	if want := chaosRefSum(); res.Check != want {
		return fmt.Errorf("reduced sum %d, want %d (schedule %q)", res.Check, want, fc.String())
	}
	return nil
}

// diagnosed reports whether a failed worker's stderr shows a typed
// transport diagnosis rather than an arbitrary crash.
func diagnosed(stderr string) bool {
	return strings.Contains(stderr, "down") || // PeerDownError / CoordDownError
		strings.Contains(stderr, "failed to assemble")
}

// killSpec is chaosSpec tightened for fast failure detection and a run
// long enough that a kill lands mid-flight. A worker learns that the
// coordinator died only at its next heartbeat, so the heartbeat must be
// short against the shortest run: the PGAS-verb apps run for about
// 100 ms after joining.
func killSpec() noderun.Spec {
	s := chaosSpec()
	s.Suspect = chaosSuspect
	s.Heartbeat = 25 * time.Millisecond
	s.CoordTimeout = 5 * time.Second
	s.CoordRPCTimeout = 2 * time.Second
	s.Params.Steps = 400 // ~3 ms a step: long enough that the kill lands mid-run
	return s
}

// errRunTooShort marks an iteration whose run finished before its kill
// landed: nothing was tested.
var errRunTooShort = errors.New("run too short")

// landKill draws the iteration's kill delay (0.2–0.9 s into the run)
// from the seeded generator and runs attempt with it. How far a run
// gets in that time depends on the app and the machine, so when the run
// beats the kill the delay is halved and the iteration repeated; it
// gives up once the delay is shorter than a worker takes to start.
func landKill(rng *rand.Rand, attempt func(killAfter time.Duration) error) error {
	killAfter := 200*time.Millisecond + time.Duration(rng.Int63n(int64(700*time.Millisecond)))
	for {
		err := attempt(killAfter)
		if !errors.Is(err, errRunTooShort) || killAfter < 25*time.Millisecond {
			return err
		}
		killAfter /= 2
	}
}

// chaosKillWorker SIGKILLs one worker mid-run; every survivor must
// exit nonzero with a typed diagnosis within the detection bound (or
// finish first, agreeing on the reduced sum — agreement is enforced by
// the launcher). A victim that finished before the kill tested nothing:
// landKill retries it sooner.
func chaosKillWorker(iterSeed uint64, rng *rand.Rand) error {
	victim := rng.Intn(*nodes)
	return landKill(rng, func(killAfter time.Duration) error { return killWorker(victim, killAfter) })
}

func killWorker(victim int, killAfter time.Duration) error {
	l := noderun.Launcher{Hooks: noderun.Hooks{
		WorkerStarted: func(node int, kill func()) {
			if node == victim {
				go func() {
					time.Sleep(killAfter)
					kill()
				}()
			}
		},
	}}
	start := time.Now()
	res, err := l.Run(context.Background(), killSpec())
	elapsed := time.Since(start)
	if res == nil {
		return err // the cluster never launched
	}
	// A *WorkerError is the expected shape (the victim, and survivors
	// diagnosing it); any other error — reduced-sum disagreement among
	// finished survivors — is a real failure.
	var we *noderun.WorkerError
	if err != nil && !errors.As(err, &we) {
		return err
	}
	for _, w := range res.Workers {
		if w.Node == victim {
			if w.Err == "" {
				return fmt.Errorf("worker %d finished before its kill at %v landed: %w", victim, killAfter, errRunTooShort)
			}
			continue
		}
		if w.Err != "" && !diagnosed(w.Stderr) {
			return fmt.Errorf("worker %d died undiagnosed after killing worker %d at %v:\n%s",
				w.Node, victim, killAfter, w.Stderr)
		}
	}
	// The detection bound: kill + 2x suspect, plus generous process
	// overhead (spawn, join, dial budget) — a hang would blow well past
	// this.
	if bound := killAfter + 2*chaosSuspect + 20*time.Second; elapsed > bound {
		return fmt.Errorf("survivors took %v to fail, over the %v bound", elapsed, bound)
	}
	return nil
}

// healSpec is killSpec with elastic recovery on: the same mid-run
// SIGKILL, but the run must heal instead of failing fast.
func healSpec() noderun.Spec {
	s := killSpec()
	s.Elastic = true
	return s
}

// healRef computes (once) the heal spec's undisturbed checksum on the
// in-process fabric — the bit-exactness bar a healed run must clear.
var healRefOnce struct {
	sync.Once
	sum uint64
	err error
}

func chaosHealRef() (uint64, error) {
	healRefOnce.Do(func() {
		s := healSpec()
		s.Fabric = noderun.FabricLocal
		s.Elastic = false
		ref, err := noderun.RunLocal(s)
		if err != nil {
			healRefOnce.err = err
			return
		}
		healRefOnce.sum = ref.Check
	})
	return healRefOnce.sum, healRefOnce.err
}

// chaosHealWorker SIGKILLs one worker mid-run of an elastic run. Where
// the kill-worker iteration demands fast typed failure, this one
// demands recovery: the launcher must start a new generation restored
// from the latest complete checkpoint, finish the run, and produce a
// reduced sum bit-identical to the undisturbed in-process reference.
func chaosHealWorker(iterSeed uint64, rng *rand.Rand) error {
	victim := rng.Intn(*nodes)
	return landKill(rng, func(killAfter time.Duration) error { return healWorker(victim, killAfter) })
}

func healWorker(victim int, killAfter time.Duration) error {
	var once sync.Once
	l := noderun.Launcher{Hooks: noderun.Hooks{
		WorkerStarted: func(node int, kill func()) {
			if node == victim {
				// First epoch only: the healed generations must survive.
				once.Do(func() {
					go func() {
						time.Sleep(killAfter)
						kill()
					}()
				})
			}
		},
	}}
	res, err := l.Run(context.Background(), healSpec())
	if err != nil {
		return fmt.Errorf("elastic run did not heal after killing worker %d at %v: %w%s",
			victim, killAfter, err, workerFailures(res))
	}
	want, err := chaosHealRef()
	if err != nil {
		return err
	}
	if res.Check != want {
		return fmt.Errorf("healed reduced sum %d, undisturbed reference %d (killed worker %d at %v)",
			res.Check, want, victim, killAfter)
	}
	if res.Recovered < 1 {
		return fmt.Errorf("kill of worker %d at %v landed after the run finished (epochs=%d): %w",
			victim, killAfter, res.Epochs, errRunTooShort)
	}
	return nil
}

// chaosKillCoord severs every coordinator connection mid-run (and
// closes its listener); every worker must exit nonzero with a typed
// CoordDownError diagnosis.
func chaosKillCoord(iterSeed uint64, rng *rand.Rand) error {
	return landKill(rng, killCoord)
}

func killCoord(killAfter time.Duration) error {
	l := noderun.Launcher{Hooks: noderun.Hooks{
		CoordStarted: func(c *noderun.Coord) {
			go func() {
				time.Sleep(killAfter)
				c.Kill() // no new connections, sever established ones
			}()
		},
	}}
	start := time.Now()
	res, err := l.Run(context.Background(), killSpec())
	elapsed := time.Since(start)
	if res == nil {
		return err
	}
	var we *noderun.WorkerError
	if err != nil && !errors.As(err, &we) {
		return err
	}
	finished := 0
	for _, w := range res.Workers {
		if w.Err == "" {
			finished++ // run beat the kill; allowed, but not for everyone
			continue
		}
		if !diagnosed(w.Stderr) {
			return fmt.Errorf("worker %d died undiagnosed after coordinator kill at %v:\n%s", w.Node, killAfter, w.Stderr)
		}
	}
	if finished == *nodes {
		return fmt.Errorf("all workers finished before the coordinator kill at %v landed: %w", killAfter, errRunTooShort)
	}
	if bound := killAfter + 2*chaosSuspect + 20*time.Second; elapsed > bound {
		return fmt.Errorf("workers took %v to fail, over the %v bound", elapsed, bound)
	}
	return nil
}

// runChaos iterates the chaos modes until -duration expires, always
// completing at least one full cycle. Elastic apps
// get a fourth, heal-worker kind: the same mid-run kill, but the run
// must recover instead of failing fast. Iteration schedules derive
// from -seed, so `-chaos -seed N` replays the same sequence.
func runChaos() error {
	// The reference run exercises the registry before any forked
	// iteration does, so a bad -app/-model is a one-line error.
	a, err := harness.LookupApp(*app)
	if err != nil {
		return err
	}
	type kind struct {
		name string
		run  func(uint64, *rand.Rand) error
	}
	kinds := []kind{
		{"recoverable", func(s uint64, _ *rand.Rand) error { return chaosRecoverable(s) }},
		{"kill-worker", chaosKillWorker},
		{"kill-coordinator", chaosKillCoord},
	}
	if a.Elastic {
		kinds = append(kinds, kind{"heal-worker", chaosHealWorker})
	} else {
		fmt.Printf("chaos: app %q has no elastic entry point; skipping heal-worker iterations\n", *app)
	}
	rng := rand.New(rand.NewSource(int64(*seed)))
	deadline := time.Now().Add(*duration)
	iter := 0
	for {
		iter++
		iterSeed := *seed*1_000_003 + uint64(iter)
		k := kinds[(iter-1)%len(kinds)]
		if err := k.run(iterSeed, rng); err != nil {
			return fmt.Errorf("chaos iteration %d (%s, seed %d): %w", iter, k.name, iterSeed, err)
		}
		fmt.Printf("chaos: iteration %d (%s, seed %d) ok\n", iter, k.name, iterSeed)
		if iter >= len(kinds) && !time.Now().Before(deadline) {
			break
		}
	}
	fmt.Printf("chaos: PASS (%d iterations)\n", iter)
	return nil
}
