package noderun_test

import (
	"context"
	"errors"
	"os"
	"strings"
	"testing"
	"time"

	"gravel/internal/noderun"
)

// TestMain lets the launcher's FabricExec re-exec this test binary as
// a cluster worker: with WorkerEnv set the process runs one node and
// exits before any test runs.
func TestMain(m *testing.M) {
	noderun.MaybeWorkerMain()
	os.Exit(m.Run())
}

func spec(fabric string) noderun.Spec {
	s := noderun.Spec{App: "gups", Model: "gravel", Nodes: 3, Fabric: fabric}
	s.Params.Scale = 0.02
	return s
}

// Forked worker processes must produce the local chan fabric's
// checksum for the same spec. (Worker goroutines over real TCP are
// cells of the root package's invariant table.)
func TestFabricsAgree(t *testing.T) {
	ref, err := noderun.RunLocal(spec(noderun.FabricLocal))
	if err != nil {
		t.Fatal(err)
	}
	if ref.Check == 0 {
		t.Fatal("local run produced a zero checksum")
	}
	t.Run(noderun.FabricExec, func(t *testing.T) {
		var l noderun.Launcher
		res, err := l.Run(context.Background(), spec(noderun.FabricExec))
		if err != nil {
			t.Fatal(err)
		}
		if res.Check != ref.Check {
			t.Fatalf("exec fabric checksum = %d, local = %d", res.Check, ref.Check)
		}
		if len(res.Workers) != 3 {
			t.Fatalf("got %d worker statuses, want 3", len(res.Workers))
		}
		if res.WirePackets == 0 {
			t.Fatal("exec fabric sent no wire packets")
		}
	})
}

// A SIGKILLed worker must surface as a typed WorkerError carrying the
// survivors' diagnoses, not a hang or a silent success.
func TestExecKillWorkerDiagnosed(t *testing.T) {
	s := spec(noderun.FabricExec)
	s.Params.Steps = 20
	s.Suspect = time.Second
	s.Heartbeat = 250 * time.Millisecond
	s.CoordTimeout = 5 * time.Second
	s.CoordRPCTimeout = 2 * time.Second
	l := noderun.Launcher{
		Hooks: noderun.Hooks{
			WorkerStarted: func(node int, kill func()) {
				if node == 1 {
					go func() {
						time.Sleep(300 * time.Millisecond)
						kill()
					}()
				}
			},
		},
	}
	res, err := l.Run(context.Background(), s)
	if err == nil {
		// The run can legitimately beat the kill; then it must be correct.
		if want := refWithSteps(t, s).Check; res.Check != want {
			t.Fatalf("run beat the kill but checksum = %d, want %d", res.Check, want)
		}
		return
	}
	var we *noderun.WorkerError
	if !errors.As(err, &we) {
		t.Fatalf("error is %T (%v), want *WorkerError", err, err)
	}
	if res == nil {
		t.Fatal("failed run returned no RunResult for diagnosis")
	}
}

func refWithSteps(t *testing.T, s noderun.Spec) *noderun.RunResult {
	t.Helper()
	s.Fabric = noderun.FabricLocal
	s.Elastic = false
	s.Suspect, s.Heartbeat, s.CoordTimeout, s.CoordRPCTimeout = 0, 0, 0, 0
	ref, err := noderun.RunLocal(s)
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

// Canceling the context must unwind a TCP-fabric run with an error
// within the failure detector's bound instead of hanging.
func TestTCPCancelUnwinds(t *testing.T) {
	s := spec(noderun.FabricTCP)
	s.Params.Steps = 50
	s.Suspect = time.Second
	s.Heartbeat = 250 * time.Millisecond
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(200 * time.Millisecond)
		cancel()
	}()
	var l noderun.Launcher
	done := make(chan error, 1)
	go func() {
		_, err := l.Run(ctx, s)
		done <- err
	}()
	select {
	case <-done:
		// Error or clean finish (the run may beat the cancel) — either
		// way it unwound.
	case <-time.After(30 * time.Second):
		t.Fatal("canceled run did not unwind within 30s")
	}
}

func TestSpecKeyAndValidate(t *testing.T) {
	a := spec(noderun.FabricTCP)
	b := a
	if a.Key() != b.Key() {
		t.Fatal("identical specs disagree on Key")
	}
	b.Params.Seed = 99
	if a.Key() == b.Key() {
		t.Fatal("different seeds share a Key")
	}
	c := a
	c.Fabric = noderun.FabricLocal
	if a.Key() == c.Key() {
		t.Fatal("different fabrics share a Key")
	}
	if (noderun.Spec{}).Normalized().Key() == "" {
		t.Fatal("empty spec has no key")
	}

	bad := a
	bad.App = "no-such-app"
	if bad.Validate() == nil {
		t.Fatal("unknown app validated")
	}
	bad = a
	bad.Fabric = "carrier-pigeon"
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "fabric") {
		t.Fatalf("unknown fabric validated: %v", err)
	}
	bad = a
	bad.Faults = "drop=notanumber"
	if bad.Validate() == nil {
		t.Fatal("unparsable fault schedule validated")
	}
}
