// Package models implements the GPU networking models the paper
// compares Gravel against (§3, §7.2, Figure 15):
//
//   - coprocessor (§3.1): the GPU fills per-node queues directly; the
//     host exchanges them bulk-synchronously between kernel chunks. The
//     chunk size is bounded so that the worst case (every WI targeting
//     one destination) cannot overflow a queue. A variant allocates an
//     order of magnitude more buffering ("coprocessor + extra
//     buffering").
//   - message-per-lane (§3.2): Gravel's queue but no aggregation —
//     every message crosses the wire as its own packet.
//   - coalesced APIs (§3.3): work-groups counting-sort their messages by
//     destination in scratchpad and synchronously send one list per
//     destination. A variant adds Gravel-style GPU-wide aggregation of
//     those lists ("coalesced APIs + Gravel aggregation").
//   - gravel-archive: Gravel's runtime with the grape-style archive
//     aggregation strategy (core.AggArchive) in place of the ticket
//     aggregator; the aggstrategy experiment's subject.
//   - CPU-only (Figure 13): the same applications executed by the host
//     CPU's four threads with Grappa/UPC-style per-thread aggregation —
//     no GPU involved.
//
// All models implement rt.System, so every application runs unmodified
// under every model. The PGAS verbs are not reimplemented here: a model
// is a core.Offloader (its send path and what that costs the
// work-group) behind core's verb front-end, plus the Step that composes
// its phase time.
package models

import (
	"fmt"

	"gravel/internal/core"
	"gravel/internal/fabric"
	"gravel/internal/rt"
	"gravel/internal/simt"
	"gravel/internal/timemodel"
)

// Config configures a model system. It carries the transport-relevant
// subset of core.Config so every model — not just gravel — is
// fabric-pluggable: the same coprocessor or coalesced baseline runs
// over the in-process "chan" fabric, the framing "loopback" fabric, or
// real "tcp" sockets spanning OS processes.
type Config struct {
	// Nodes is the cluster size.
	Nodes int
	// Params is the virtual-time cost model; nil means timemodel.Default.
	Params *timemodel.Params
	// WGSize is the work-group size in lanes (0 = the model's default).
	WGSize int
	// DivMode selects diverged WG-level operation behaviour.
	DivMode simt.DivergenceMode
	// GroupSize > 1 enables two-level hierarchical aggregation
	// (gravel model only).
	GroupSize int
	// ResolverShards splits each node's receive-side resolution into
	// per-bank resolvers (0 or 1 = the serial network thread).
	ResolverShards int
	// Transport names a registered fabric transport ("" = "chan").
	Transport string
	// TransportOpts configures non-default transports.
	TransportOpts fabric.Options
}

// coreConfig translates cfg into the shared core.Config fields.
func (cfg Config) coreConfig(name string) core.Config {
	return core.Config{
		Name:           name,
		Nodes:          cfg.Nodes,
		Params:         cfg.Params,
		WGSize:         cfg.WGSize,
		DivMode:        cfg.DivMode,
		GroupSize:      cfg.GroupSize,
		ResolverShards: cfg.ResolverShards,
		Transport:      cfg.Transport,
		TransportOpts:  cfg.TransportOpts,
	}
}

// Gravel returns the paper's system itself (package core), for use with
// the New factory.
func Gravel(nodes int, p *timemodel.Params) rt.System {
	return NewSystem("gravel", Config{Nodes: nodes, Params: p})
}

// Names lists the systems Figure 15 compares, in the paper's bar order.
func Names() []string {
	return []string{
		"coprocessor",
		"coprocessor+buf",
		"msg-per-lane",
		"coalesced",
		"coalesced+agg",
		"gravel",
		"gravel-archive",
	}
}

// New builds a system by Figure 15 name over the default in-process
// fabric. A nil p means timemodel.Default.
func New(name string, nodes int, p *timemodel.Params) rt.System {
	return NewSystem(name, Config{Nodes: nodes, Params: p})
}

// NewSystem builds a system by name over the configured fabric. It is
// the single construction funnel behind gravel.New/NewModel: every
// model accepts every registered transport, so the Figure 15 sweep runs
// in-process or as a real multi-process cluster.
func NewSystem(name string, cfg Config) rt.System {
	if cfg.Params == nil {
		cfg.Params = timemodel.Default()
	}
	if cfg.GroupSize > 1 && name != "gravel" {
		panic(fmt.Sprintf("models: hierarchical aggregation (GroupSize %d) requires the gravel model, not %q", cfg.GroupSize, name))
	}
	switch name {
	case "gravel":
		return core.New(cfg.coreConfig("gravel"))
	case "gravel-archive":
		c := cfg.coreConfig("gravel-archive")
		c.AggStrategy = core.AggArchive
		return core.New(c)
	case "msg-per-lane":
		c := cfg.coreConfig("msg-per-lane")
		c.AggMode = core.AggPerMessage
		return core.New(c)
	case "coprocessor":
		return NewCoprocessor(cfg, false)
	case "coprocessor+buf":
		return NewCoprocessor(cfg, true)
	case "coalesced":
		return NewCoalesced(cfg, false)
	case "coalesced+agg":
		return NewCoalesced(cfg, true)
	case "cpu-only":
		arch := simt.CPUArch(cfg.Params)
		c := cfg.coreConfig("cpu-only")
		c.Arch = &arch
		if c.WGSize == 0 {
			c.WGSize = 256
		}
		return core.New(c)
	default:
		panic(fmt.Sprintf("models: unknown system %q", name))
	}
}
