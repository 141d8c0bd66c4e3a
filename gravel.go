// Package gravel is a Go reproduction of "Gravel: Fine-Grain
// GPU-Initiated Network Messages" (Orr et al., SC'17): a runtime that
// lets the threads of a (simulated) GPU initiate small PGAS-style
// network messages, which are offloaded at work-group granularity
// through a GPU-efficient producer/consumer queue to a CPU aggregator
// that combines them into large per-node queues.
//
// Because no GPU or InfiniBand cluster is involved, the GPU is a
// faithful SIMT simulator (work-items, 64-wide wavefronts, work-groups,
// divergence, WG-level operations) and the cluster is simulated
// in-process; message delivery is functionally real while time is
// virtual, calibrated to the paper's hardware. See DESIGN.md.
//
// # Quick start
//
//	sys := gravel.New(gravel.Config{Nodes: 8})
//	defer sys.Close()
//	table := sys.Space().Alloc(1 << 20)
//	grid := []int{n, n, n, n, n, n, n, n}
//	sys.Step("updates", grid, 0, func(c gravel.Ctx) {
//		g := c.Group()
//		idx := make([]uint64, g.Size)
//		one := make([]uint64, g.Size)
//		g.Vector(func(l int) {
//			idx[l] = myRandomOffset(c.Node(), g.GlobalID(l))
//			one[l] = 1
//		})
//		c.Inc(table, idx, one, nil) // fine-grain atomic increments
//	})
//	fmt.Println(table.Sum(), sys.VirtualTimeNs())
//
// Kernels run once per work-group; per-lane work is expressed through
// the Group's vector operations, and the Ctx methods (Put, Inc, AM)
// offload the active lanes' messages with a single work-group-level
// reservation — the paper's core mechanism.
//
// The rival GPU networking models evaluated in the paper (coprocessor,
// message-per-lane, coalesced APIs, and a CPU-only distributed baseline)
// are available through NewModel, so any application written against
// this API can be compared across models as in the paper's Figure 15.
package gravel

import (
	"gravel/internal/core"
	"gravel/internal/fabric"
	"gravel/internal/models"
	"gravel/internal/pgas"
	"gravel/internal/rt"
	"gravel/internal/simt"
	"gravel/internal/timemodel"
	"gravel/internal/transport"
	"gravel/internal/transport/fault"
)

// System is a running cluster: kernels are launched with Step and every
// initiated message is applied by the time Step returns.
type System = rt.System

// Ctx is the per-work-group kernel context (lane-indexed PGAS
// operations with diverged work-group-level semantics).
type Ctx = rt.Ctx

// Kernel is GPU code, invoked once per work-group.
type Kernel = rt.Kernel

// AMHandler is an active-message handler, executed serialized on the
// destination node's network thread.
type AMHandler = rt.AMHandler

// Stats is the versioned statistics snapshot (System.Stats): cumulative
// totals organized by subsystem (Queue, Agg, Transport, Faults) plus
// the last steps' deltas and per-name step sums. StatsVersion
// identifies the schema.
type Stats = rt.Stats

// StatsVersion is the schema version carried in Stats.Version.
const StatsVersion = rt.StatsVersion

// Per-subsystem sections of Stats, the per-step delta record and the
// per-name step sums.
type (
	QueueStats     = rt.QueueStats
	AggStats       = rt.AggStats
	ResolverStats  = rt.ResolverStats
	BankCount      = rt.BankCount
	TransportStats = rt.TransportStats
	FaultStats     = rt.FaultStats
	StepStats      = rt.StepStats
	PhaseStats     = rt.PhaseStats
)

// Array is a symmetric distributed array in the global address space.
type Array = pgas.Array

// Space is a cluster's global address space.
type Space = pgas.Space

// Group is a SIMT work-group executing a kernel.
type Group = simt.Group

// Params is the virtual-time cost model (calibrated to the paper's
// Table 3 node architecture by DefaultParams).
type Params = timemodel.Params

// DivergenceMode selects how WG-level operations behave in diverged
// control flow (§5 of the paper).
type DivergenceMode = simt.DivergenceMode

// Divergence modes.
const (
	// SoftwarePredication is what current GPUs require (§5.1).
	SoftwarePredication = simt.SoftwarePredication
	// WGReconvergence models WG-granularity control flow (§5.3).
	WGReconvergence = simt.WGReconvergence
	// FineGrainBarrier models HSA-style fbars over arbitrary WI sets.
	FineGrainBarrier = simt.FineGrainBarrier
)

// DefaultParams returns the cost model calibrated to the paper's
// hardware (Table 3).
func DefaultParams() *Params { return timemodel.Default() }

// Config configures a Gravel cluster.
type Config struct {
	// Model selects the networking model by name: "" or ModelGravel
	// (the paper's system), or any rival model listed by Models. Every
	// model runs over every Transport — in-process or as a
	// multi-process cluster — so the Figure 15 comparison works over a
	// real fabric.
	Model string
	// Nodes is the cluster size (the paper evaluates 1-8).
	Nodes int
	// Params overrides the cost model; nil means DefaultParams.
	Params *Params
	// WGSize is the work-group size in lanes (default 256 = 4
	// wavefronts, the paper's best configuration).
	WGSize int
	// DivMode selects diverged WG-level operation behaviour.
	DivMode DivergenceMode
	// ResolverShards splits each node's receive-side resolution into
	// this many concurrent per-bank resolvers, keyed by destination
	// address (same word → same bank, so per-word ordering survives).
	// 0 or 1 is the paper's serial network thread, bit-identical to
	// the unsharded runtime; more must be a power of two, at most 64.
	ResolverShards int
	// Transport selects the fabric implementation by name:
	// "" or "chan" (in-process channels, the default), "loopback"
	// (in-process with real wire framing), or "tcp" (real sockets; one
	// process per node — see cmd/gravel-node). Listed by Transports.
	Transport string
	// TransportOpts configures socket transports (which node this
	// process hosts, listen address, coordinator address,
	// failure-detection timeouts, and fault injection: drops,
	// duplicates, delays, reordering, byte corruption, stalls, severs,
	// node blackouts and asymmetric partitions, all replayable from
	// Faults.Seed). Ignored by in-process transports.
	TransportOpts TransportOptions
}

// TransportOptions configures socket transports; see fabric.Options.
type TransportOptions = fabric.Options

// FaultConfig is a deterministic fault-injection schedule; see
// internal/transport/fault.Config for field semantics and
// fault.Parse for the "drop=0.02,sever=0.01:1,..." spec syntax used by
// cmd/gravel-node's -faults flag and GRAVEL_FAULTS.
type FaultConfig = fault.Config

// Transports lists the transport names Config.Transport accepts,
// sorted.
func Transports() []string { return transport.Names() }

// ConfigError reports an invalid Config (or NewModel argument): which
// field is wrong and why. It is the error type behind Validate,
// NewChecked, and NewModelChecked, and the panic value of New/NewModel
// on bad input, of Step on a grid that is not one entry per node, and
// of the 257th RegisterAM.
type ConfigError = core.ConfigError

// cluster is cfg as the runtime's one description of a cluster.
func (cfg Config) cluster() core.Config {
	return core.Config{
		Name:           cfg.Model,
		Nodes:          cfg.Nodes,
		Params:         cfg.Params,
		WGSize:         cfg.WGSize,
		DivMode:        cfg.DivMode,
		ResolverShards: cfg.ResolverShards,
		Transport:      cfg.Transport,
		TransportOpts:  cfg.TransportOpts,
	}
}

// Validate checks the configuration and returns a *ConfigError
// describing the first problem found, or nil. The model must be a row
// of the model table; every other rule is core.Config.Validate's, the
// single place configuration rules live, which New, NewChecked, and the
// cmd binaries all go through.
func (cfg Config) Validate() error {
	if _, err := models.Lookup(cfg.Model); err != nil {
		return err
	}
	return cfg.cluster().Validate()
}

// New creates a Gravel cluster. Callers must Close it. It panics the
// error NewChecked would return.
func New(cfg Config) System {
	sys, err := NewChecked(cfg)
	if err != nil {
		panic(err)
	}
	return sys
}

// NewChecked is New returning its failure instead of panicking: a
// *ConfigError for an invalid configuration, the transport's own error
// if the fabric cannot be brought up (an unbindable listen address, an
// unreachable coordinator).
func NewChecked(cfg Config) (System, error) {
	m, err := models.Lookup(cfg.Model)
	if err != nil {
		return nil, err
	}
	return m.New(cfg.cluster())
}

// Model names accepted by NewModel, in the paper's Figure 15 order plus
// the Figure 13 CPU-only baseline.
const (
	ModelGravel         = "gravel"
	ModelGravelArchive  = "gravel-archive"
	ModelCoprocessor    = "coprocessor"
	ModelCoprocessorBuf = "coprocessor+buf"
	ModelMsgPerLane     = "msg-per-lane"
	ModelCoalesced      = "coalesced"
	ModelCoalescedAgg   = "coalesced+agg"
	ModelCPUOnly        = "cpu-only"
)

// Models lists every available networking model.
func Models() []string { return models.AllNames() }

// NewModel creates a cluster running one of the paper's GPU networking
// models; applications written against this package run unmodified
// under any of them. A nil params means DefaultParams. It panics with a
// *ConfigError on an unknown model or invalid cluster size;
// NewModelChecked returns the error instead.
func NewModel(name string, nodes int, params *Params) System {
	sys, err := NewModelChecked(name, nodes, params)
	if err != nil {
		panic(err)
	}
	return sys
}

// NewModelChecked is NewModel returning configuration errors (always a
// *ConfigError) instead of panicking. It is shorthand for NewChecked
// with Config.Model set; use NewChecked directly to also pick a
// transport.
func NewModelChecked(name string, nodes int, params *Params) (System, error) {
	return NewChecked(Config{Model: name, Nodes: nodes, Params: params})
}
