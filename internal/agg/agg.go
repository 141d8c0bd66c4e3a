// Package agg implements Gravel's aggregator (§3.4, §6): CPU threads
// that drain the GPU's producer/consumer queue and repack messages into
// per-node queues, which are handed to the NIC when full or at a flush
// point.
//
// The paper flushes on a 125 µs timeout as well; in this bulk-
// synchronous reproduction the end-of-superstep flush subsumes the
// timeout (see DESIGN.md). The time the aggregator core is not busy —
// §8.1's observation that it spends most of its time polling — is
// derived on the virtual clock at each phase boundary (core's phase record);
// the thread itself parks when idle instead of polling.
package agg

import (
	"slices"
	"sync"

	"gravel/internal/fabric"
	"gravel/internal/queue"
	"gravel/internal/timemodel"
	"gravel/internal/wire"
)

// shard is one drain thread's private staging: its own builder set
// under its own mutex. With one aggregator thread (the paper's best
// configuration, and the default) there is a single shard and behavior
// is identical to a global lock; with more, threads repack without
// contending on one mutex and packet streams merge in the outbox.
type shard struct {
	mu       sync.Mutex      // guards builders, grouped and the signal marks
	builders []*wire.Builder // per in-group destination (or all, when flat)
	grouped  []*wire.Builder // per remote group, routed records

	// Destinations that took a PUT_SIGNAL during the batch being
	// repacked. Signals must not sit in a part-filled builder until the
	// end-of-step flush (a remote waiter spinning on the signal cell
	// keeps its step from ending), but they need not go out one packet
	// per signal either: flushing once at the end of the drained batch
	// preserves liveness and lets a batch's worth of signalled puts to
	// one destination share a packet.
	sigNodes     []int
	sigGroups    []int
	sigNodeMark  []bool
	sigGroupMark []bool
}

// Aggregator is the paper's ticket strategy: the driver's threads
// repack drained queue slots into fixed-capacity per-node builders.
type Aggregator struct {
	*driver

	// perMessage disables message combining: every message becomes its
	// own wire packet (the message-per-lane baseline, §3.2).
	perMessage bool

	// groupSize > 1 enables two-level hierarchical aggregation (§10):
	// messages to a node outside the sender's group travel in per-GROUP
	// queues to a gateway member of the destination group, which
	// re-aggregates them into per-node queues for its group.
	groupSize int

	// shards holds one staging shard per drain thread. Host-context
	// staging (AppendDirect, Flush's final drain) uses shard 0.
	shards []*shard
}

// New creates an aggregator for the given node. With perMessage set,
// combining is disabled and every message becomes its own packet (the
// message-per-lane baseline).
func New(node int, params *timemodel.Params, q *queue.Gravel, fab fabric.Fabric, clock *timemodel.Clocks, perMessage bool) *Aggregator {
	return NewHierarchical(node, params, q, fab, clock, perMessage, 0)
}

// NewHierarchical is New with two-level aggregation over groups of
// groupSize nodes (§10); groupSize <= 1 means flat.
func NewHierarchical(node int, params *timemodel.Params, q *queue.Gravel, fab fabric.Fabric, clock *timemodel.Clocks, perMessage bool, groupSize int) *Aggregator {
	n := fab.Nodes()
	if groupSize <= 1 || groupSize >= n {
		groupSize = 0
	}
	a := &Aggregator{
		driver:     newDriver(node, params, q, fab, clock),
		perMessage: perMessage,
		groupSize:  groupSize,
	}
	capBytes := params.PerNodeQueueBytes
	if perMessage {
		capBytes = wire.MsgWireBytes
	}
	a.shards = make([]*shard, len(a.consume))
	for i := range a.shards {
		sh := &shard{builders: make([]*wire.Builder, n), sigNodeMark: make([]bool, n)}
		for d := 0; d < n; d++ {
			sh.builders[d] = wire.NewBuilder(d, capBytes)
		}
		if groupSize > 0 {
			groups := (n + groupSize - 1) / groupSize
			sh.grouped = make([]*wire.Builder, groups)
			sh.sigGroupMark = make([]bool, groups)
			for g := 0; g < groups; g++ {
				gw := a.gatewayOf(g)
				sh.grouped[g] = wire.NewRoutedBuilder(gw, capBytes)
			}
		}
		a.consume[i] = func(payload []uint64, rows, cols, count int) {
			a.repack(sh, payload, cols, count)
		}
		a.shards[i] = sh
	}
	return a
}

// gatewayOf picks this node's gateway member within remote group g,
// spreading gateway load across the group's members.
func (a *Aggregator) gatewayOf(g int) int {
	n := a.fab.Nodes()
	gw := g*a.groupSize + a.node%a.groupSize
	if gw >= n {
		gw = g * a.groupSize
	}
	return gw
}

// GroupSize returns the hierarchical group size (0 = flat).
func (a *Aggregator) GroupSize() int { return a.groupSize }

// repack moves one slot's messages into sh's per-destination builders,
// flushing any builder that fills (§3.4: per-node queues are sent as
// soon as they become full).
func (a *Aggregator) repack(sh *shard, payload []uint64, cols, count int) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	cmdRow, destRow, aRow, bRow := a.slotRows(payload, cols, count)
	for m := 0; m < count; m++ {
		a.appendLocked(sh, int(destRow[m]), cmdRow[m], aRow[m], bRow[m])
	}
	a.flushSignalsLocked(sh)
}

// flushSignalsLocked sends every builder that took a PUT_SIGNAL during
// the batch just staged; sh.mu must be held. See the shard fields for
// why signals flush at batch boundaries rather than per message or at
// end of step.
func (a *Aggregator) flushSignalsLocked(sh *shard) {
	for _, g := range sh.sigGroups {
		sh.sigGroupMark[g] = false
		a.flushLocked(sh.grouped[g], false)
	}
	sh.sigGroups = sh.sigGroups[:0]
	for _, d := range sh.sigNodes {
		sh.sigNodeMark[d] = false
		a.flushLocked(sh.builders[d], false)
	}
	sh.sigNodes = sh.sigNodes[:0]
}

// appendLocked stages one message toward dest, choosing a per-node or
// per-group queue; sh.mu must be held.
func (a *Aggregator) appendLocked(sh *shard, dest int, cmd, av, vv uint64) {
	if a.groupSize > 0 && dest/a.groupSize != a.node/a.groupSize {
		g := dest / a.groupSize
		b := sh.grouped[g]
		if b.Full() {
			a.flushLocked(b, false)
		}
		b.AppendRouted(cmd, av, vv, dest)
		if wire.Op(cmd&0xff) == wire.OpPutSignal && !sh.sigGroupMark[g] {
			sh.sigGroupMark[g] = true
			sh.sigGroups = append(sh.sigGroups, g)
		}
		return
	}
	b := sh.builders[dest]
	if b.Full() {
		a.flushLocked(b, false)
	}
	b.Append(cmd, av, vv)
	if a.perMessage {
		// Message-per-lane: no combining; one packet per message.
		a.flushLocked(b, false)
	} else if wire.Op(cmd&0xff) == wire.OpPutSignal && !sh.sigNodeMark[dest] {
		sh.sigNodeMark[dest] = true
		sh.sigNodes = append(sh.sigNodes, dest)
	}
}

// AppendDirect stages one message from host context (an AM handler
// issuing a follow-up message, or a gateway relaying a routed record),
// charging chargeNs of CPU time to the given adder. It may flush a full
// queue. Host-context staging always lands on shard 0.
func (a *Aggregator) AppendDirect(dest int, cmd, av, vv uint64, chargeNs float64) {
	sh := a.shards[0]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	a.clock.AddAgg(chargeNs)
	a.appendLocked(sh, dest, cmd, av, vv)
	a.flushSignalsLocked(sh)
}

// flushLocked hands b's queue, per-node or per-group, to the outbox;
// the mutex of the shard that owns b must be held.
func (a *Aggregator) flushLocked(b *wire.Builder, timeout bool) {
	if !b.Empty() {
		buf, msgs := b.Take()
		a.stage(b.Dest(), buf, msgs, b.Routed(), timeout)
	}
}

// Flush sends every non-empty per-node queue (end-of-superstep /
// timeout flush). The caller must ensure no aggregator thread holds a
// claimed slot (Busy), or the slot's messages miss the flush and split
// their per-node queue in two; the queue's unclaimed slots Flush drains
// itself. Flush must be called from a host thread (it transmits, which
// can block). It is the one caller that stages with timeout set, which
// wakes no aggregator thread: the pump below sends what it staged.
func (a *Aggregator) Flush() {
	a.Drain()
	for _, sh := range a.shards {
		sh.mu.Lock()
		for d := range sh.builders {
			a.flushLocked(sh.builders[d], true)
		}
		for g := range sh.grouped {
			a.flushLocked(sh.grouped[g], true)
		}
		sh.mu.Unlock()
	}
	a.pump()
}

// Pending reports whether any shard holds unflushed messages or the
// outbox unsent ones.
func (a *Aggregator) Pending() bool {
	staged := func(b *wire.Builder) bool { return !b.Empty() }
	for _, sh := range a.shards {
		sh.mu.Lock()
		pending := slices.ContainsFunc(sh.builders, staged) || slices.ContainsFunc(sh.grouped, staged)
		sh.mu.Unlock()
		if pending {
			return true
		}
	}
	return a.unsent()
}
