// Package noderun is the run-lifecycle layer of the distributed
// runtime: everything cmd/gravel-node used to inline — spawning a
// rendezvous coordinator, launching one worker per node, running the
// selected application shard, collecting and cross-checking the
// per-worker results — as a callable Go API. A cluster run is a value
// (Spec) handed to a Runner, not a process invocation, which is what
// lets gravel-server schedule runs onto a warm worker pool and lets
// tests drive real clusters without shelling out.
//
// A Spec picks one of three fabrics:
//
//	FabricLocal  one process, one System on the chan fabric — the
//	             bit-exactness reference and the cheapest execution
//	FabricTCP    one worker goroutine per node over the real TCP
//	             transport (frames, acks, reconnects) inside this
//	             process
//	FabricExec   one OS process per node (re-execed from Exe with the
//	             spec in the environment) — full process isolation,
//	             the fabric gravel-node -smoke and the chaos harness
//	             use
//
// All three produce the same additive checksum for the same Spec; the
// launcher enforces agreement across workers before returning.
package noderun

import (
	"fmt"
	"time"

	"gravel"
	"gravel/internal/harness"
	"gravel/internal/rt"
	"gravel/internal/transport/fault"
)

// Fabric names accepted by Spec.Fabric.
const (
	FabricLocal = "local"
	FabricTCP   = "tcp"
	FabricExec  = "exec"
)

// Spec identifies one cluster run completely: workload, model, cluster
// shape, fabric, and failure-injection/-detection knobs. Two Specs with
// the same Key() are the same run — the job queue dedups and caches on
// it — so every field that changes results (or execution shape) must
// feed Key.
type Spec struct {
	App    string         `json:"app"`
	Model  string         `json:"model"`
	Nodes  int            `json:"nodes"`
	Fabric string         `json:"fabric"`
	Params harness.Params `json:"params"`

	// Faults is a deterministic fault schedule (fault.Parse syntax),
	// applied on the TCP/exec fabrics.
	Faults string `json:"faults,omitempty"`
	// ResolverShards is the per-node receive-side resolver bank count
	// (0 or 1 = the serial network thread; otherwise a power of two).
	ResolverShards int `json:"resolver_shards,omitempty"`

	// Failure-detection cadence and coordinator deadlines; zero values
	// resolve to the transport defaults.
	Suspect         time.Duration `json:"suspect,omitempty"`
	Heartbeat       time.Duration `json:"heartbeat,omitempty"`
	CoordTimeout    time.Duration `json:"coord_timeout,omitempty"`
	CoordRPCTimeout time.Duration `json:"coord_rpc_timeout,omitempty"`

	// Elastic enables checkpoint/restore and recovery orchestration:
	// workers save shard checkpoints at step barriers, and the launcher
	// heals a worker loss by starting a new membership epoch restored
	// from the latest complete checkpoint instead of failing the run.
	// Requires an Elastic app.
	Elastic bool `json:"elastic,omitempty"`
	// CkptEvery is the checkpoint cadence in step barriers (0 = every
	// barrier). Elastic runs only.
	CkptEvery int `json:"ckpt_every,omitempty"`
	// MaxRecoveries bounds unplanned epoch recoveries before the run is
	// declared failed (0 = 3; negative = none allowed). Planned
	// rescales are not charged against it.
	MaxRecoveries int `json:"max_recoveries,omitempty"`
}

// Normalized fills the defaulted fields: gups on the gravel model, 4
// nodes, TCP fabric.
func (s Spec) Normalized() Spec {
	if s.App == "" {
		s.App = "gups"
	}
	if s.Model == "" {
		s.Model = "gravel"
	}
	if s.Nodes == 0 {
		s.Nodes = 4
	}
	if s.Fabric == "" {
		s.Fabric = FabricTCP
	}
	return s
}

// Validate rejects a spec that no fabric could run: unknown app, model
// or fabric, a non-positive cluster size, or an unparsable fault
// schedule.
func (s Spec) Validate() error {
	if _, err := harness.LookupApp(s.App); err != nil {
		return err
	}
	if s.Nodes < 1 {
		return fmt.Errorf("noderun: %d nodes", s.Nodes)
	}
	if err := (gravel.Config{Model: s.Model, Nodes: s.Nodes, ResolverShards: s.ResolverShards}).Validate(); err != nil {
		return err
	}
	switch s.Fabric {
	case FabricLocal, FabricTCP, FabricExec:
	default:
		return fmt.Errorf("noderun: unknown fabric %q (have %s, %s, %s)",
			s.Fabric, FabricLocal, FabricTCP, FabricExec)
	}
	if _, err := fault.Parse(s.Faults); err != nil {
		return fmt.Errorf("noderun: faults: %w", err)
	}
	if s.Elastic {
		if s.Fabric == FabricLocal {
			return fmt.Errorf("noderun: elastic runs need a cluster fabric (%s or %s)", FabricTCP, FabricExec)
		}
		a, _ := harness.LookupApp(s.App)
		if !a.Elastic {
			return fmt.Errorf("noderun: app %q has no elastic (checkpoint/restore) entry point", s.App)
		}
	}
	return nil
}

// Key is the canonical identity string of a normalized spec — the
// dedup and cache key of the job queue. Every result-relevant field
// participates.
func (s Spec) Key() string {
	s = s.Normalized()
	p := s.Params
	key := fmt.Sprintf("app=%s model=%s nodes=%d fabric=%s scale=%g seed=%d table=%d updates=%d steps=%d verts=%d iters=%d faults=%s",
		s.App, s.Model, s.Nodes, s.Fabric,
		p.Scale, p.Seed, p.Table, p.Updates, p.Steps, p.Verts, p.Iters,
		s.Faults)
	if s.Elastic {
		// Elastic changes execution shape (checkpoints, epoch loop) even
		// though results stay bit-identical; appended only when set so
		// pre-elastic cache keys stay valid.
		key += fmt.Sprintf(" elastic=true ckpt=%d", s.CkptEvery)
	}
	if s.ResolverShards > 1 {
		// Sharded resolution changes modeled time (NetBound is the
		// busiest bank); appended only when sharded so pre-sharding
		// cache keys stay valid.
		key += fmt.Sprintf(" shards=%d", s.ResolverShards)
	}
	return key
}

// WorkerResult is one worker's outcome — the JSON line a gravel-node
// worker process prints (field names are part of that contract).
// LocalSum is the worker shard's additive checksum; TotalSum the
// cluster-wide reduction of it.
type WorkerResult struct {
	Node     int     `json:"node"`
	App      string  `json:"app"`
	Model    string  `json:"model"`
	Summary  string  `json:"summary"`
	LocalSum uint64  `json:"local_sum"`
	TotalSum uint64  `json:"total_sum"`
	Ns       float64 `json:"ns"`
	Sent     int64   `json:"wire_pkts_sent"`
	Recon    int64   `json:"reconnects"`
}

// WorkerStatus is one worker's view inside a RunResult: its result on
// success, its error and captured stderr tail on failure.
type WorkerStatus struct {
	Node   int           `json:"node"`
	Result *WorkerResult `json:"result,omitempty"`
	Err    string        `json:"err,omitempty"`
	Stderr string        `json:"stderr,omitempty"`
}

// RunResult is one completed cluster run. Check is the reduced
// cluster-wide checksum — bit-identical across fabrics for the same
// Spec.
type RunResult struct {
	Spec        Spec           `json:"spec"`
	Check       uint64         `json:"check"`
	Summary     string         `json:"summary"`
	Ns          float64        `json:"ns"`
	WirePackets int64          `json:"wire_pkts_sent"`
	Reconnects  int64          `json:"reconnects"`
	WallNs      int64          `json:"wall_ns"`
	Workers     []WorkerStatus `json:"workers,omitempty"`

	// Epochs is the number of membership epochs the run spanned
	// (elastic runs; 1 = undisturbed, 0 = non-elastic).
	Epochs int `json:"epochs,omitempty"`
	// Recovered counts unplanned recoveries: epochs that ended in a
	// worker loss and were healed from a checkpoint instead of failing
	// the run. Planned rescales are not counted.
	Recovered int `json:"recovered,omitempty"`
	// EpochLog records each epoch of an elastic run in order.
	EpochLog []EpochStat `json:"epoch_log,omitempty"`

	// Stats is the full runtime snapshot, populated on the local fabric
	// (remote fabrics report per-worker wire counters instead).
	Stats *rt.Stats `json:"stats,omitempty"`
}

// EpochStat is one membership epoch of an elastic run.
type EpochStat struct {
	// Gen is the epoch's membership generation.
	Gen uint32 `json:"gen"`
	// Nodes is the epoch's worker count.
	Nodes int `json:"nodes"`
	// WallNs is the epoch's wall-clock duration.
	WallNs int64 `json:"wall_ns"`
	// Outcome is "completed" (the run finished in this epoch),
	// "recovered" (a worker died; the next epoch healed from a
	// checkpoint), or "rescaled" (a planned membership change ended the
	// epoch at a step barrier).
	Outcome string `json:"outcome"`
}

// WorkerError is a worker's failure inside a cluster run, carrying its
// node and the tail of its stderr (the typed transport diagnosis, the
// fault log) for the retry layer and the operator.
type WorkerError struct {
	Node   int
	Stderr string
	Err    error
}

func (e *WorkerError) Error() string {
	return fmt.Sprintf("worker %d: %v", e.Node, e.Err)
}

func (e *WorkerError) Unwrap() error { return e.Err }

// RunLocal executes the spec as a single process on the chan fabric:
// the cheapest execution and the reference every other fabric is
// checked against.
func RunLocal(spec Spec) (*RunResult, error) {
	spec = spec.Normalized()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	a, err := harness.LookupApp(spec.App)
	if err != nil {
		return nil, err
	}
	sys, err := gravel.NewChecked(gravel.Config{Model: spec.Model, Nodes: spec.Nodes, ResolverShards: spec.ResolverShards})
	if err != nil {
		return nil, err
	}
	start := time.Now()
	res := a.Run(sys, rt.Whole(), spec.Params)
	st := sys.Stats()
	sys.Close()
	if res.Err != nil {
		return nil, fmt.Errorf("noderun: local run failed verification: %w", res.Err)
	}
	return &RunResult{
		Spec:        spec,
		Check:       res.Check,
		Summary:     res.Summary,
		Ns:          res.Ns,
		WirePackets: st.Transport.WirePackets,
		WallNs:      time.Since(start).Nanoseconds(),
		Stats:       &st,
	}, nil
}
