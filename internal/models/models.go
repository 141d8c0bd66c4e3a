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
//     destination. A variant hands those lists to Gravel's queue and CPU
//     aggregator ("coalesced APIs + Gravel aggregation").
//   - gravel-archive: Gravel's runtime with the grape-style archive
//     aggregation strategy (core.SendArchive) in place of the queue and
//     the ticket aggregator; the aggstrategy experiment's subject.
//   - CPU-only (Figure 13): the same applications executed by the host
//     CPU's four threads with Grappa/UPC-style per-thread aggregation —
//     no GPU involved.
//
// All models implement rt.System, so every application runs unmodified
// under every model. The PGAS verbs are not reimplemented here: a model
// is a core.Offloader (its send path and what that costs the
// work-group) behind core's verb front-end, plus the Step that composes
// its phase time.
//
// A row names its core.SendPath, the only send-side switch, and a node
// builds only what that path writes. The paper's §4 producer/consumer
// queue is Gravel's own: gravel, cpu-only and coalesced+agg
// (core.SendQueue) and msg-per-lane (core.SendPerMessage) have one, and
// the ticket aggregator is the one CPU repack. The coprocessor and
// coalesced rows own their buffering (core.SendOwn); gravel-archive
// appends straight into its archives (core.SendArchive).
package models

import (
	"fmt"

	"gravel/internal/core"
	"gravel/internal/rt"
	"gravel/internal/simt"
	"gravel/internal/timemodel"
)

// Model is one networking model: its name (gravel.Config.Model, the
// binaries' -model), the one-line description -list prints, and what
// makes it that model — its send path, how it sets up the cluster it
// runs on otherwise (nil: as described), and the Offloaders and Step it
// puts over that cluster (nil: the cluster's own).
type Model struct {
	Name string
	Desc string
	send core.SendPath
	tune func(*core.Config)
	over func(*core.Cluster) rt.System
}

// New builds the model over cfg's cluster and fabric, labelled with the
// model's name. The error is a *core.ConfigError, or the transport's
// own if the fabric cannot be brought up.
func (m Model) New(cfg core.Config) (rt.System, error) {
	cfg.Name, cfg.Send = m.Name, m.send
	if m.tune != nil {
		m.tune(&cfg)
	}
	cl, err := core.NewChecked(cfg)
	if err != nil {
		return nil, err
	}
	if m.over != nil {
		return m.over(cl), nil
	}
	return cl, nil
}

// Table is every model, in the paper's Figure 15 bar order, then the
// Figure 13 CPU-only baseline. Every list of models (Names,
// gravel.Models, the harness's -list) and every construction reads it:
// registering a model is adding a row.
var Table = []Model{
	{"coprocessor", "§3.1 bulk-synchronous per-node queues exchanged between kernel chunks",
		core.SendOwn, nil, coprocessor(0)},
	{"coprocessor+buf", "coprocessor with 1 MB per-node queues (Figure 15 second bar)",
		core.SendOwn, nil, coprocessor(1 << 20)},
	{"msg-per-lane", "§3.2 Gravel queue, no aggregation: one wire packet per message",
		core.SendPerMessage, nil, nil},
	{"coalesced", "§3.3 per-WG counting sort + synchronous coalesced sends (GPUnet style)",
		core.SendOwn, nil, coalesced},
	{"coalesced+agg", "coalesced APIs + Gravel-style GPU-wide aggregation",
		core.SendQueue, nil, coalesced},
	{"gravel", "the paper's system: WG-granularity offload + CPU aggregation",
		core.SendQueue, nil, nil},
	{"gravel-archive", "gravel with grape-style per-destination archive aggregation (WF appends, fused bulk handoff)",
		core.SendArchive, nil, nil},
	{"cpu-only", "Figure 13 CPU baseline: 4 host threads, Grappa/UPC-style aggregation",
		core.SendQueue, func(cfg *core.Config) {
			p := cfg.Params
			if p == nil {
				p = timemodel.Default()
			}
			arch := simt.CPUArch(p)
			cfg.Arch = &arch
			if cfg.WGSize == 0 {
				cfg.WGSize = 256
			}
		}, nil},
}

func names(rows []Model) []string {
	out := make([]string, len(rows))
	for i, m := range rows {
		out[i] = m.Name
	}
	return out
}

// Lookup returns the table row called name ("" is "gravel"), or a
// *core.ConfigError listing the rows there are.
func Lookup(name string) (Model, error) {
	if name == "" {
		name = "gravel"
	}
	for _, m := range Table {
		if m.Name == name {
			return m, nil
		}
	}
	return Model{}, &core.ConfigError{Field: "Model", Reason: fmt.Sprintf("unknown model %q (have %v)", name, AllNames())}
}

// AllNames lists every model, in table order.
func AllNames() []string { return names(Table) }

// Names lists the systems Figure 15 compares, in the paper's bar order:
// every row but the CPU-only baseline that closes the table.
func Names() []string { return names(Table[:len(Table)-1]) }

// Gravel returns the paper's system itself (package core) over the
// default in-process fabric.
func Gravel(nodes int, p *timemodel.Params) rt.System { return New("gravel", nodes, p) }

// New builds a system by name over the default in-process fabric. A nil
// p means timemodel.Default.
func New(name string, nodes int, p *timemodel.Params) rt.System {
	return NewSystem(name, core.Config{Nodes: nodes, Params: p})
}

// NewSystem builds the model called name over cfg's fabric — every
// model accepts every registered transport, so the Figure 15 sweep runs
// in-process or as a real multi-process cluster. It panics the error
// Lookup or Model.New returns.
func NewSystem(name string, cfg core.Config) rt.System {
	m, err := Lookup(name)
	if err != nil {
		panic(err)
	}
	sys, err := m.New(cfg)
	if err != nil {
		panic(err)
	}
	return sys
}
