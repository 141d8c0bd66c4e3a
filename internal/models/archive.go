package models

import (
	"gravel/internal/agg"
	"gravel/internal/core"
	"gravel/internal/rt"
	"gravel/internal/simt"
)

// GravelArchive is the grape-style rival aggregation design run as a
// full Figure-15 model (ROADMAP item 2): the same cluster runtime as
// gravel — producer/consumer queue hardware, resolvers, fabrics — but
// the send path uses the archive aggregation strategy (agg.Archive)
// instead of the ticket-slot builders. The device appends messages
// directly into per-destination growable archives at wavefront
// granularity (simt.Group.WFAggregate: one leader reservation per
// distinct destination per WF), so there is no CPU-side repack of queue
// slots; archives seal into segments, fuse per destination, and ship
// as bulk packets.
//
// The contrast with gravel is the aggstrategy experiment's subject:
// gravel pays two reservation atomics per work-group plus per-message
// CPU repack time regardless of the destination distribution, while
// the archive pays one device atomic per distinct destination per
// wavefront — cheaper under skew, more expensive under uniform spray.
type GravelArchive struct {
	*core.Cluster
	off []core.Offloader
}

// NewArchive builds the archive-aggregation model over cfg's fabric
// with fuse enabled (the grape default).
func NewArchive(cfg Config) *GravelArchive {
	c := cfg.coreConfig("gravel-archive")
	c.AggStrategy = core.AggArchive
	c.ArchiveFuse = true
	m := &GravelArchive{Cluster: core.New(c), off: make([]core.Offloader, cfg.Nodes)}
	for i := range m.off {
		m.off[i] = archAppender{m.Node(i).Agg.(*agg.Archive)}
	}
	return m
}

// Step implements rt.System: like gravel's Step, but sending through
// the archive appender.
func (m *GravelArchive) Step(name string, grid []int, scratchPerWG int, k rt.Kernel) {
	m.LaunchAll(grid, scratchPerWG, m.off, k)
	m.Quiesce()
	m.StepBarrier()
	m.EndPhaseOverlapped(name)
}

// archAppender is the archive send path: the work-group's messages
// become WF-aggregated appends straight into the node's
// per-destination archives — one reservation per (wavefront, distinct
// destination) — bypassing the producer/consumer queue and the CPU
// repack entirely.
type archAppender struct{ ar *agg.Archive }

// Offload implements core.Offloader. A PUT_SIGNAL command stages its
// destination's whole archive immediately (agg.Archive's signal
// liveness rule), so a remote waiter never spins on a parked signal.
func (o archAppender) Offload(g *simt.Group, b core.Batch) {
	g.WFAggregate(b.Active, func(l int) int { return b.Dests[l] }, func(dest int, lanes []int) {
		o.ar.AppendWF(dest, lanes, b.CmdAt, b.A, b.V)
	})
	g.ChargeMessages(b.N)
}

// Progress implements core.Offloader by flushing the node's archives: a
// waiter may depend transitively on plain puts still parked in a
// half-filled open segment (only signals stage eagerly), so each spin
// pushes staged work toward the wire.
func (o archAppender) Progress() { o.ar.Flush() }

var _ rt.System = (*GravelArchive)(nil)
