// Command gravel-node runs a Gravel cluster as real OS processes over
// the TCP transport: one worker process per node plus a rendezvous
// coordinator. Every registered application and every networking model
// runs unmodified — the harness registry that drives the in-process
// binaries also drives this one — so the Figure 15 model sweep can run
// as a real multi-process cluster. The run lifecycle itself (worker
// spawn, rendezvous, collect, teardown) lives in internal/noderun;
// this binary is the thin flag surface over it, and gravel-server
// schedules the same lifecycle as a service.
//
// Modes:
//
//	gravel-node -serve -listen :7777 -nodes 4     rendezvous coordinator
//	gravel-node -node 2 -nodes 4 -coord :7777     worker hosting node 2
//	gravel-node -smoke -nodes 4                   self-contained localhost
//	                                              run, checked against the
//	                                              in-process fabric
//	gravel-node -chaos -seed 1 -duration 30s      chaos harness: smoke runs
//	                                              under seeded fault schedules
//	                                              plus worker/coordinator kills
//	                                              and healed elastic kills
//	gravel-node -scaleout -json scaleout.json     live 2->4 elastic scale-out
//	                                              with per-epoch throughput
//	gravel-node -list                             registered apps and models
//
// Any registered app (-app, see -list) and model (-model) works in
// every mode, e.g.:
//
//	gravel-node -smoke -nodes 3 -model=coprocessor -app=gups
//
// Workers print one JSON result line on stdout. The smoke mode forks
// one worker per node, runs the coordinator itself, and verifies that
// the reduced distributed checksum equals the single-process run's —
// the distributed fabric must be invisible to application results.
//
// Workers accept a fault-injection schedule via -faults (or the
// GRAVEL_FAULTS env var), e.g. `seed=7,drop=0.02,delay=0.2/5ms`, and
// failure-detection cadence via -suspect / -heartbeat. A worker whose
// peer or coordinator dies exits nonzero with the typed error and a
// per-destination stats + fault-log dump on stderr. The chaos mode
// cycles four iteration kinds — recoverable schedules that must stay
// bit-exact, a SIGKILLed worker, a killed coordinator, and a SIGKILLed
// worker under an elastic spec that the run must heal from — with
// every schedule derived from -seed so failures replay exactly.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"time"

	"gravel"
	"gravel/internal/buildinfo"
	"gravel/internal/cliflags"
	"gravel/internal/harness"
	"gravel/internal/noderun"
	"gravel/internal/obs"
	"gravel/internal/rt"
	"gravel/internal/transport"
)

var (
	serve    = flag.Bool("serve", false, "run the rendezvous coordinator")
	smoke    = flag.Bool("smoke", false, "fork a full localhost cluster and verify it against the in-process fabric")
	chaos    = flag.Bool("chaos", false, "run the chaos harness: repeated distributed runs under seeded fault schedules and process kills")
	scaleout = flag.Bool("scaleout", false, "bench a live 2->4 elastic scale-out and write per-epoch throughput (also to -json, if given)")
	list     = flag.Bool("list", false, "list registered apps, models and transports, then exit")
	version  = flag.Bool("version", false, "print the build-info string and exit")

	node   = flag.Int("node", -1, "node this worker hosts")
	nodes  = flag.Int("nodes", 4, "cluster size")
	coord  = flag.String("coord", "", "coordinator address (host:port)")
	listen = flag.String("listen", "127.0.0.1:0", "listen address (coordinator or worker transport)")

	app     = flag.String("app", "gups", "application to run (see -list)")
	model   = flag.String("model", "gravel", "networking model (see -list)")
	scale   = flag.Float64("scale", 1.0, "input scale factor for app-default sizes")
	table   = flag.Int("table", 1<<16, "gups family: global table size (0 = app default)")
	updates = flag.Int("updates", 1<<12, "gups family: updates/work-items per node (0 = app default)")
	steps   = flag.Int("steps", 2, "gups: kernel launches (0 = app default)")
	seed    = flag.Uint64("seed", 0, "deterministic seed (0 = app default)")
	verts   = flag.Int("verts", 0, "pagerank: vertex count (0 = app default)")
	iters   = flag.Int("iters", 0, "iterative apps: iteration count (0 = app default)")

	faults = flag.String("faults", "",
		`deterministic fault schedule, e.g. "seed=7,drop=0.02,dup=0.01,delay=0.2:5ms,sever=0.002:1" (default $GRAVEL_FAULTS; empty/off disables)`)
	suspectFlag     = flag.Duration("suspect", 0, "declare a silent peer down after this long (0 = 30s default, <0 disables)")
	heartbeatFlag   = flag.Duration("heartbeat", 0, "peer/coordinator heartbeat period (0 = suspect/4)")
	coordTimeout    = flag.Duration("coord-timeout", 0, "coordinator dial budget (0 = 30s default)")
	coordRPCTimeout = flag.Duration("coord-rpc-timeout", 0, "per-RPC coordinator deadline (0 = 15s default, <0 disables)")
	duration        = flag.Duration("duration", 30*time.Second, "chaos: how long to keep iterating")

	checkTrace = flag.String("check-trace", "", "validate a flight-recorder JSONL trace file against the schema and exit")

	// common is the shared observability/profiling flag surface
	// (-json, -trace, -obs-addr, -cpuprofile, -memprofile).
	common cliflags.Common
)

func init() { common.RegisterDefault(true) }

// workerParams maps the flag surface onto the registry's parameter
// surface; zero-valued flags resolve to each app's registered default,
// identically in every process.
func workerParams() harness.Params {
	return harness.Params{
		Scale:   *scale,
		Seed:    *seed,
		Table:   *table,
		Updates: *updates,
		Steps:   *steps,
		Verts:   *verts,
		Iters:   *iters,
	}
}

// specFromFlags is the full flag surface as a noderun Spec (fabric
// unset; each mode picks its own).
func specFromFlags() noderun.Spec {
	fspec := *faults
	if fspec == "" {
		fspec = os.Getenv("GRAVEL_FAULTS")
	}
	return noderun.Spec{
		App:             *app,
		Model:           *model,
		Nodes:           *nodes,
		Params:          workerParams(),
		Faults:          fspec,
		ResolverShards:  common.ResolverShards,
		Suspect:         *suspectFlag,
		Heartbeat:       *heartbeatFlag,
		CoordTimeout:    *coordTimeout,
		CoordRPCTimeout: *coordRPCTimeout,
	}
}

func main() {
	// A process launched by a noderun exec fabric (smoke, chaos,
	// gravel-server's worker pool) is a cluster worker, nothing else.
	noderun.MaybeWorkerMain()
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.Full("gravel-node"))
		return
	}
	if *checkTrace != "" {
		ev, err := obs.ValidateJSONLFile(*checkTrace)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("check-trace: %s: %d events, schema v%d, timestamps monotonic\n",
			*checkTrace, len(ev), obs.SchemaVersion)
		return
	}
	if *list {
		if err := harness.PrintList(common.JSONPath); err != nil {
			fatal(err)
		}
		return
	}
	// Validate cross-cutting flags up front so misconfiguration is a
	// one-line error, not a worker-side diagnostic dump.
	if !*serve && *model != "" {
		if err := (gravel.Config{Model: *model, Nodes: 1, ResolverShards: common.ResolverShards}).Validate(); err != nil {
			fatal(err)
		}
	}
	sess, err := common.Begin()
	if err != nil {
		fatal(err)
	}
	err = dispatch(sess)
	// The session must end before exiting (flush the CPU profile, drain
	// the trace, stop the observability server) — fatal would skip the
	// deferred path.
	if endErr := sess.End(); err == nil {
		err = endErr
	}
	if err != nil {
		fatal(err)
	}
}

func dispatch(sess *cliflags.Session) error {
	switch {
	case *serve:
		return runCoordinator()
	case *smoke:
		return runSmoke(sess)
	case *chaos:
		return runChaos()
	case *scaleout:
		return runScaleOut(common.JSONPath)
	case *node >= 0:
		return runWorker(sess)
	default:
		flag.Usage()
		os.Exit(2)
		return nil
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gravel-node:", err)
	os.Exit(1)
}

// runCoordinator serves the rendezvous point until every worker has
// said goodbye.
func runCoordinator() error {
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	fmt.Println(ln.Addr().String()) // so scripts can discover the port
	c := transport.NewCoordinator(*nodes)
	go func() {
		<-c.Done()
		ln.Close()
	}()
	c.Serve(ln)
	return nil
}

// runWorker hosts one node through noderun's worker lifecycle, wiring
// the observability session (-obs-addr) into the live runtime, and
// prints the JSON result line.
func runWorker(sess *cliflags.Session) error {
	if *coord == "" {
		return fmt.Errorf("worker needs -coord")
	}
	res, err := noderun.RunWorker(noderun.WorkerConfig{
		Node:   *node,
		Coord:  *coord,
		Listen: *listen,
		Spec:   specFromFlags(),
		OnSystem: func(sys gravel.System, tcp *transport.TCP) {
			// /healthz surfaces the transport failure detector's verdict,
			// /metrics the live Stats snapshot.
			sess.SetHealth(tcp.Err)
			sess.SetStats(func() *rt.Stats {
				st := sys.Stats()
				return &st
			})
		},
		Diag: os.Stderr,
	})
	if err != nil {
		return err
	}
	if common.JSONPath != "" {
		if err := cliflags.WriteJSON(common.JSONPath, res); err != nil {
			return err
		}
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// printWorkerFailures relays failed workers' diagnoses (typed
// transport errors, fault logs) to stderr.
func printWorkerFailures(res *noderun.RunResult) {
	if res == nil {
		return
	}
	for _, w := range res.Workers {
		if w.Err == "" {
			continue
		}
		fmt.Fprintf(os.Stderr, "worker %d: %s\n", w.Node, w.Err)
		if w.Stderr != "" {
			fmt.Fprintln(os.Stderr, w.Stderr)
		}
	}
}

// runSmoke is the end-to-end check: it launches the exec fabric (one
// forked worker process per node plus an in-process coordinator) and
// verifies the reduced distributed checksum of the selected app and
// model against the single-process channel fabric. With
// -trace/-obs-addr the in-process reference run feeds the flight
// recorder and the /metrics endpoint.
func runSmoke(sess *cliflags.Session) error {
	s := specFromFlags()
	s.Fabric = noderun.FabricExec
	var l noderun.Launcher
	res, err := l.Run(context.Background(), s)
	if err != nil {
		printWorkerFailures(res)
		return err
	}

	// Reference: the identical run on the in-process channel fabric.
	sref := s
	sref.Fabric = noderun.FabricLocal
	ref, err := noderun.RunLocal(sref)
	if err != nil {
		return err
	}
	sess.SetStats(func() *rt.Stats { return ref.Stats })

	fmt.Printf("smoke: app=%s model=%s %d workers, distributed check %d (reduced %d), in-process check %d\n",
		s.App, s.Model, s.Nodes, res.Check, res.Check, ref.Check)
	if res.Check != ref.Check {
		return fmt.Errorf("distributed run diverged from the in-process fabric")
	}
	fmt.Println("smoke: PASS")
	return nil
}
