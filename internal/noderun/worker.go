// Worker-side lifecycle: host one node of a cluster run. Extracted
// from cmd/gravel-node so a worker is a callable API — gravel-node's
// -node mode, the goroutine fabric, and the env-re-exec child process
// all funnel through RunWorker.
package noderun

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"gravel"
	"gravel/internal/ckpt"
	"gravel/internal/core"
	"gravel/internal/harness"
	"gravel/internal/rt"
	"gravel/internal/transport"
	"gravel/internal/transport/fault"
)

// WorkerConfig is one worker's identity within a cluster run plus the
// host binary's hooks into it.
type WorkerConfig struct {
	// Node is the node this worker hosts, in [0, Spec.Nodes).
	Node int
	// Coord is the rendezvous coordinator's address.
	Coord string
	// Listen is the worker's transport listen address (default
	// 127.0.0.1:0).
	Listen string
	// Spec is the run this worker takes part in. Fabric is ignored: a
	// worker always joins over the TCP transport.
	Spec Spec
	// Gen is the membership generation this worker belongs to (0 = the
	// coordinator's when the worker joins). Stamped on every
	// coordinator RPC and peer handshake — a stale-generation worker is
	// rejected with a typed error instead of polluting the new epoch.
	Gen uint32

	// OnSystem, if non-nil, observes the constructed runtime before the
	// shard runs — gravel-node wires /healthz and /metrics here.
	OnSystem func(sys gravel.System, tcp *transport.TCP)
	// Diag, if non-nil, receives the failure-time diagnostic dump
	// (per-destination wire statistics, injected-fault log).
	Diag io.Writer
}

// RunWorker hosts one node: it joins the cluster through the
// coordinator, runs the selected application's shard on the selected
// model, folds the local result into the cluster-wide reduction, and
// returns both. On a fatal transport error (a peer or the coordinator
// declared down, surfaced as a typed error from the runtime) it dumps
// diagnostics to cfg.Diag and returns the error; the transport is
// killed, not closed — a graceful drain toward a dead peer would stall
// past the failure detector's own bound.
func RunWorker(cfg WorkerConfig) (res WorkerResult, err error) {
	spec := cfg.Spec.Normalized()
	if cfg.Coord == "" {
		return res, fmt.Errorf("noderun: worker needs a coordinator address")
	}
	if cfg.Node < 0 || cfg.Node >= spec.Nodes {
		return res, fmt.Errorf("noderun: node %d out of range for %d nodes", cfg.Node, spec.Nodes)
	}
	a, err := harness.LookupApp(spec.App)
	if err != nil {
		return res, err
	}
	fcfg, err := fault.Parse(spec.Faults)
	if err != nil {
		return res, fmt.Errorf("noderun: faults: %w", err)
	}
	listen := cfg.Listen
	if listen == "" {
		listen = "127.0.0.1:0"
	}
	var (
		sys gravel.System
		tcp *transport.TCP
	)
	// Transport failures at Step time surface as panics on the Step
	// goroutine carrying typed errors (transport.PeerDownError,
	// transport.CoordDownError). Recover them into a diagnosed return.
	defer func() {
		if r := recover(); r != nil {
			if e, ok := r.(error); ok {
				err = e
			} else {
				err = fmt.Errorf("%v", r)
			}
		}
		if err != nil {
			if cfg.Diag != nil {
				dumpDiagnostics(cfg.Diag, cfg.Node, sys, tcp)
			}
			if tcp != nil {
				tcp.Kill()
			}
		} else if sys != nil {
			sys.Close()
		}
	}()
	sys, err = gravel.NewChecked(gravel.Config{
		Model:          spec.Model,
		Nodes:          spec.Nodes,
		ResolverShards: spec.ResolverShards,
		Transport:      "tcp",
		TransportOpts: gravel.TransportOptions{
			Self:              cfg.Node,
			Listen:            listen,
			Coord:             cfg.Coord,
			Faults:            fcfg,
			SuspectTimeout:    spec.Suspect,
			HeartbeatInterval: spec.Heartbeat,
			CoordDialTimeout:  spec.CoordTimeout,
			CoordRPCTimeout:   spec.CoordRPCTimeout,
			Generation:        cfg.Gen,
		},
	})
	if err != nil {
		return res, err
	}
	var ok bool
	tcp, ok = sys.(interface{ Fabric() core.Fabric }).Fabric().(*transport.TCP)
	if !ok {
		return res, fmt.Errorf("noderun: fabric is not the TCP transport")
	}
	if cfg.OnSystem != nil {
		cfg.OnSystem(sys, tcp)
	}

	// The shard's superstep collectives (frontier emptiness, k-means
	// accumulators, team reductions) ride the peer streams through the
	// transport's Collectives surface; an elastic run's checkpoints go
	// to the coordinator's store.
	at := rt.Where{Node: cfg.Node, Coll: tcp.Collectives()}
	resharded := false
	if spec.Elastic && a.Elastic {
		at.Ckpt = ckpt.Run{Every: spec.CkptEvery, Save: tcp.SaveCheckpoint}
		rp, found, ferr := tcp.FetchCheckpoint()
		if ferr != nil {
			return res, ferr
		}
		if found {
			if rp.Nodes != spec.Nodes && !a.Reshardable {
				return res, fmt.Errorf("noderun: app %q cannot restore a %d-node checkpoint on %d nodes", spec.App, rp.Nodes, spec.Nodes)
			}
			resharded = rp.Nodes != spec.Nodes
			at.Ckpt.Resume = rp.Shards
		}
	}
	shard := a.Run(sys, at, spec.Params)
	if shard.Err != nil {
		return res, shard.Err
	}

	total, err := at.Coll.AllReduce(spec.App+":sum", rt.WorldTeam, rt.OpSum, shard.Check)
	if err != nil {
		return res, err
	}
	// A restore that crossed node counts invalidates per-node-count
	// expectations (VerifyTotal derives them from the *current* count);
	// the launcher still cross-checks shard agreement and additivity.
	if a.VerifyTotal != nil && !resharded {
		if err := a.VerifyTotal(total, spec.Params, spec.Nodes); err != nil {
			return res, err
		}
	}
	stats := sys.Stats().Transport
	var pkts int64
	for _, d := range stats.PerDest {
		pkts += d.Packets
	}
	return WorkerResult{
		Node:     cfg.Node,
		App:      spec.App,
		Model:    spec.Model,
		Summary:  shard.Summary,
		LocalSum: shard.Check,
		TotalSum: total,
		Ns:       shard.Ns,
		Sent:     pkts,
		Recon:    stats.Reconnects,
	}, nil
}

// dumpDiagnostics writes the failure-time picture: per-dest wire
// statistics and, when fault injection is on, the injected-fault
// counters and log tail — everything needed to replay and localize a
// failed run from its seed.
func dumpDiagnostics(w io.Writer, node int, sys gravel.System, tcp *transport.TCP) {
	fmt.Fprintf(w, "gravel-node: diagnostic dump (node %d)\n", node)
	if sys != nil {
		s := sys.Stats().Transport
		fmt.Fprintf(w, "  wire: %d pkts, %d bytes; reconnects=%d retries=%d malformed=%d corrupt=%d\n",
			s.WirePackets, s.WireBytes, s.Reconnects, s.Retries, s.Malformed, s.CorruptFrames)
		for d, pd := range s.PerDest {
			if pd.Packets > 0 {
				fmt.Fprintf(w, "  -> node %d: %d pkts, %d bytes\n", d, pd.Packets, pd.Bytes)
			}
		}
	}
	if tcp == nil {
		return
	}
	if err := tcp.Err(); err != nil {
		fmt.Fprintf(w, "  transport error: %v\n", err)
	}
	if inj := tcp.FaultInjector(); inj.Enabled() {
		fmt.Fprintf(w, "  faults injected: %s (seed %d)\n", inj.Counters(), inj.Config().Seed)
		for _, e := range inj.Log() {
			fmt.Fprintf(w, "    %s\n", e)
		}
	}
}

// WorkerEnv is the environment variable a FabricExec launcher sets on
// forked children: the worker's identity as JSON. Any binary that may
// serve as a worker host (gravel-node, gravel-server, test binaries)
// calls MaybeWorkerMain first thing in main.
const WorkerEnv = "GRAVEL_NODERUN_WORKER"

// workerEnvDoc is the JSON carried by WorkerEnv.
type workerEnvDoc struct {
	Node  int    `json:"node"`
	Coord string `json:"coord"`
	Spec  Spec   `json:"spec"`
	Gen   uint32 `json:"gen,omitempty"`
}

// MaybeWorkerMain turns the current process into a cluster worker if
// WorkerEnv is set: it runs the node named there, prints the
// WorkerResult JSON line on stdout, and exits — it does not return.
// With WorkerEnv unset it is a no-op, so hosting binaries call it
// unconditionally before flag parsing.
func MaybeWorkerMain() {
	v := os.Getenv(WorkerEnv)
	if v == "" {
		return
	}
	var doc workerEnvDoc
	if err := json.Unmarshal([]byte(v), &doc); err != nil {
		fmt.Fprintf(os.Stderr, "noderun worker: bad %s: %v\n", WorkerEnv, err)
		os.Exit(2)
	}
	res, err := RunWorker(WorkerConfig{
		Node:  doc.Node,
		Coord: doc.Coord,
		Spec:  doc.Spec,
		Gen:   doc.Gen,
		Diag:  os.Stderr,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "noderun worker %d: %v\n", doc.Node, err)
		os.Exit(1)
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintf(os.Stderr, "noderun worker %d: %v\n", doc.Node, err)
		os.Exit(1)
	}
	os.Exit(0)
}
