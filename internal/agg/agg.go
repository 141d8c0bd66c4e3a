// Package agg implements Gravel's aggregator (§3.4, §6): one CPU
// thread per node that drains the GPU's producer/consumer queue and
// repacks messages into per-node queues, which are handed to the NIC
// when full or at a flush point.
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

// Aggregator is the paper's ticket strategy: the driver's thread
// repacks drained queue slots into fixed-capacity per-node builders.
type Aggregator struct {
	*driver

	// perMessage disables message combining: every message becomes its
	// own wire packet (the message-per-lane baseline, §3.2).
	perMessage bool

	mu       sync.Mutex      // guards builders and the signal marks
	builders []*wire.Builder // per destination node

	// Destinations that took a PUT_SIGNAL during the batch being
	// repacked. Signals must not sit in a part-filled builder until the
	// end-of-step flush (a remote waiter spinning on the signal cell
	// keeps its step from ending), but they need not go out one packet
	// per signal either: flushing once at the end of the drained batch
	// preserves liveness and lets a batch's worth of signalled puts to
	// one destination share a packet.
	sigNodes    []int
	sigNodeMark []bool
}

// New creates an aggregator for the given node, draining q; a nil q
// leaves it only AppendDirect to stage (a node whose model sends
// through buffers of its own). With perMessage set, combining is
// disabled and every message becomes its own packet (the
// message-per-lane baseline).
func New(node int, params *timemodel.Params, q *queue.Gravel, fab fabric.Fabric, clock *timemodel.Clocks, perMessage bool) *Aggregator {
	n := fab.Nodes()
	a := &Aggregator{
		driver:     newDriver(node, params, q, fab, clock),
		perMessage: perMessage,
	}
	capBytes := params.PerNodeQueueBytes
	if perMessage {
		capBytes = wire.MsgWireBytes
	}
	a.builders = make([]*wire.Builder, n)
	a.sigNodeMark = make([]bool, n)
	for d := 0; d < n; d++ {
		a.builders[d] = wire.NewBuilder(d, capBytes)
	}
	a.consume = a.repack
	return a
}

// repack moves one slot's messages into the per-destination builders,
// flushing any builder that fills (§3.4: per-node queues are sent as
// soon as they become full).
func (a *Aggregator) repack(payload []uint64, rows, cols, count int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	cmdRow, destRow, aRow, bRow := a.slotRows(payload, cols, count)
	a.appendLocked(cmdRow[:count], destRow, aRow, bRow)
	a.flushSignalsLocked()
}

// flushSignalsLocked sends every builder that took a PUT_SIGNAL during
// the batch just staged; a.mu must be held. See the signal fields for
// why signals flush at batch boundaries rather than per message or at
// end of step.
func (a *Aggregator) flushSignalsLocked() {
	for _, d := range a.sigNodes {
		a.sigNodeMark[d] = false
		a.flushLocked(a.builders[d], false)
	}
	a.sigNodes = a.sigNodes[:0]
}

// appendLocked stages message m, (cmd[m], av[m], vv[m]) toward node
// dest[m], for every m < len(cmd), into its per-node queue; a.mu must
// be held. It is the repack loop: on the combining path a record costs
// no call but a full queue's flush.
func (a *Aggregator) appendLocked(cmd, dest, av, vv []uint64) {
	dest, av, vv = dest[:len(cmd)], av[:len(cmd)], vv[:len(cmd)]
	for m, c := range cmd {
		d := int(dest[m])
		b := a.builders[d]
		if b.Full() {
			a.flushLocked(b, false)
		}
		b.Append(c, av[m], vv[m])
		if a.perMessage {
			// Message-per-lane: no combining; one packet per message.
			a.flushLocked(b, false)
		} else if wire.Op(c&0xff) == wire.OpPutSignal && !a.sigNodeMark[d] {
			a.sigNodeMark[d] = true
			a.sigNodes = append(a.sigNodes, d)
		}
	}
}

// AppendDirect stages one message from host context (an AM handler
// issuing a follow-up message), charging chargeNs of CPU time to the
// given adder. It may flush a full queue.
func (a *Aggregator) AppendDirect(dest int, cmd, av, vv uint64, chargeNs float64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.clock.AddAgg(chargeNs)
	a.appendLocked([]uint64{cmd}, []uint64{uint64(dest)}, []uint64{av}, []uint64{vv})
	a.flushSignalsLocked()
}

// flushLocked hands b's queue to the outbox; a.mu must be held.
func (a *Aggregator) flushLocked(b *wire.Builder, timeout bool) {
	if !b.Empty() {
		buf, msgs := b.Take()
		a.stage(b.Dest(), buf, msgs, timeout)
	}
}

// Flush sends every non-empty per-node queue (end-of-superstep /
// timeout flush). The caller must ensure the aggregator thread holds no
// claimed slot (Busy), or the slot's messages miss the flush and split
// their per-node queue in two; the queue's unclaimed slots Flush drains
// itself. Flush must be called from a host thread (it transmits, which
// can block). It is the one caller that stages with timeout set, which
// wakes no aggregator thread: the pump below sends what it staged.
func (a *Aggregator) Flush() {
	a.Drain()
	a.mu.Lock()
	for _, b := range a.builders {
		a.flushLocked(b, true)
	}
	a.mu.Unlock()
	a.pump()
}

// Pending reports whether the builders hold unflushed messages or the
// outbox unsent ones.
func (a *Aggregator) Pending() bool {
	a.mu.Lock()
	pending := slices.ContainsFunc(a.builders, func(b *wire.Builder) bool { return !b.Empty() })
	a.mu.Unlock()
	return pending || a.unsent()
}
