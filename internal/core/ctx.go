package core

import (
	"sync/atomic"

	"gravel/internal/agg"
	"gravel/internal/obs"
	"gravel/internal/pgas"
	"gravel/internal/queue"
	"gravel/internal/rt"
	"gravel/internal/simt"
	"gravel/internal/wire"
)

// Offloader is one model's send path: what happens to a work-group's
// messages once the verb front-end (ctx) has decided which lanes send
// what, and where. It is all that Figure 15 varies. An implementation
// charges the group what its path costs (Charge*, VectorMasked,
// Barrier); the front-end charges only the verbs' own local work.
type Offloader interface {
	// Offload sends the batch's active lanes' messages for work-group
	// g. It is called even when no lane is active (b.N == 0): some paths
	// charge a WG-level operation before they can know. Destinations are
	// already resolved and range-checked, so nothing panics between
	// reserving queue space and committing it.
	Offload(g *simt.Group, b Batch)
	// Progress runs on every spin of a WaitUntil: a path that stages
	// messages on the device side pushes them toward the wire, so a
	// waiter cannot block what it waits for.
	Progress()
}

// Batch is one verb call's messages, lane-indexed: lane l sends
// (CmdAt(l), A[l], V[l]) to node Dests[l] if Active[l].
type Batch struct {
	// Cmd is the command word of every lane, unless Cmds is non-nil
	// (PUT_SIGNAL carries the lane's signal cell in its command).
	Cmd  uint64
	Cmds []uint64
	// Dests is valid for active lanes only.
	Dests []int
	A, V  []uint64
	// Active is WG-sized; N counts its true entries.
	Active []bool
	N      int
	// Lanes and Mask are WG-sized scratch for a path that regroups the
	// lanes; their contents mean nothing on entry.
	Lanes []int
	Mask  []bool
}

// CmdAt returns lane l's command word.
func (b *Batch) CmdAt(l int) uint64 {
	if b.Cmds != nil {
		return b.Cmds[l]
	}
	return b.Cmd
}

// ctx is the verb front-end, the tree's only rt.Ctx: it turns
// lane-level PGAS operations into batches for the model's Offloader. It
// owns what the models share — the lane-mask convention, destination
// resolution, the local fast paths, signal addressing checks, command
// packing, locality counts and the wait.
//
// Every sending verb resolves all of its active lanes' destinations
// first, uncharged, before the offloader reserves anything: an
// out-of-range index (*pgas.RangeError), a misplaced signal cell
// (*SignalError) or an AM to a node that does not exist (*DestError)
// panics on the kernel's goroutine with no queue slot half-written, so
// a kernel that recovers leaves the step able to quiesce.
type ctx struct {
	n   *Node
	g   *simt.Group
	off Offloader

	// WG-sized scratch, made once per simt.Group, not per WG.
	allOn, remote, mask []bool
	dests, lanes        []int
	cmds                []uint64
}

func newCtx(n *Node, g *simt.Group) *ctx {
	wg := n.cl.cfg.WGSize
	c := &ctx{n: n, g: g, allOn: make([]bool, wg), remote: make([]bool, wg), mask: make([]bool, wg),
		dests: make([]int, wg), lanes: make([]int, wg), cmds: make([]uint64, wg)}
	for i := range c.allOn {
		c.allOn[i] = true
	}
	g.Host = c
	return c
}

// kernelAdapter runs k as node n's device kernel — the one place
// contexts are made, one per simt.Group: each WG runs k through off.
type kernelAdapter struct {
	n   *Node
	off Offloader
	k   rt.Kernel
}

func (ka *kernelAdapter) run(g *simt.Group) {
	c, _ := g.Host.(*ctx)
	if c == nil {
		c = newCtx(ka.n, g)
	}
	c.off = ka.off
	ka.k(c)
}

// Kernel adapts k to a device kernel for n.GPU.Launch/LaunchAt, for a
// model that launches on its own (LaunchAll reuses the node's adapter).
func (n *Node) Kernel(off Offloader, k rt.Kernel) func(*simt.Group) {
	return (&kernelAdapter{n, off, k}).run
}

// Node implements rt.Ctx.
func (c *ctx) Node() int { return c.n.ID }

// Nodes implements rt.Ctx.
func (c *ctx) Nodes() int { return c.n.cl.cfg.Nodes }

// Group implements rt.Ctx.
func (c *ctx) Group() *simt.Group { return c.g }

// laneMask applies the rt.Ctx lane-mask convention: nil means all
// lanes, anything else must be exactly WG-sized.
func (c *ctx) laneMask(verb string, active []bool) []bool {
	if active == nil {
		return c.allOn[:c.g.Size]
	}
	if len(active) != c.g.Size {
		panic(&MaskError{Verb: verb, Got: len(active), Want: c.g.Size})
	}
	return active
}

// send counts the active lanes by locality and hands them to the
// offloader; their destinations are already in c.dests.
func (c *ctx) send(cmd uint64, cmds, a, v []uint64, active []bool) {
	n, local := 0, 0
	for l, on := range active {
		if on {
			n++
			if c.dests[l] == c.n.ID {
				local++
			}
		}
	}
	c.n.Clocks.CountOps(local, n-local)
	size := c.g.Size
	c.off.Offload(c.g, Batch{Cmd: cmd, Cmds: cmds, Dests: c.dests[:size], A: a, V: v,
		Active: active, N: n, Lanes: c.lanes[:size], Mask: c.mask[:size]})
}

// direct executes the local lanes' op (OpInc: atomic add, OpPut:
// atomic store of v[l] to arr[a[l]]) on the device itself, through the
// node's window of arr, under one instr-instruction vector operation
// that computes the owner and either accesses memory or marks the lane
// for offload, and sends only the remote lanes. It returns the local
// lane count.
func (c *ctx) direct(instr int, op wire.Op, arr *pgas.Array, a, v []uint64, active []bool) (local int) {
	remote := c.remote[:c.g.Size]
	cells, lo := arr.LocalWindow(c.n.ID)
	anyRemote := false
	for l, on := range active {
		remote[l] = on && c.dests[l] != c.n.ID
		if !on || remote[l] {
			anyRemote = anyRemote || remote[l]
			continue
		}
		local++
		if op == wire.OpInc {
			atomic.AddUint64(&cells[a[l]-lo], v[l])
		} else {
			atomic.StoreUint64(&cells[a[l]-lo], v[l])
		}
	}
	c.g.ChargeMasked(instr, active)
	c.n.Clocks.CountOps(local, 0)
	if anyRemote {
		c.send(wire.PackCmd(op, 0, arr.ID()), nil, a, v, remote)
	}
	return local
}

// Inc implements rt.Ctx: atomic increments always travel through the
// owner's network thread, even when local (§6) — unless the cluster was
// built with LocalAtomicsDirect, in which case local increments execute
// as concurrent GPU read-modify-writes (the design the paper rejected).
func (c *ctx) Inc(arr *pgas.Array, idx, delta []uint64, active []bool) {
	active = c.laneMask("Inc", active)
	arr.Owners(c.dests, idx, active)
	if !c.n.cl.cfg.LocalAtomicsDirect {
		c.send(wire.PackCmd(wire.OpInc, 0, arr.ID()), nil, idx, delta, active)
		return
	}
	// Each local RMW is a contended global atomic, serialized at the
	// memory system.
	c.g.ChargeAtomics(c.direct(1, wire.OpInc, arr, idx, delta, active))
}

// Put implements rt.Ctx: local PUTs execute directly as GPU stores;
// remote PUTs are offloaded (§7.1).
func (c *ctx) Put(arr *pgas.Array, idx, val []uint64, active []bool) {
	active = c.laneMask("Put", active)
	arr.Owners(c.dests, idx, active)
	c.direct(2, wire.OpPut, arr, idx, val, active)
}

// AM implements rt.Ctx: active messages are atomics and always travel
// through the destination's network thread (§6).
func (c *ctx) AM(h uint8, dest []int, a, b []uint64, active []bool) {
	active = c.laneMask("AM", active)
	nodes := c.n.cl.cfg.Nodes
	for l, on := range active {
		if !on {
			continue
		}
		if d := dest[l]; d < 0 || d >= nodes {
			panic(&DestError{Verb: "AM", Node: c.n.ID, Lane: l, Dest: d, Nodes: nodes})
		}
		c.dests[l] = dest[l]
	}
	c.send(wire.PackCmd(wire.OpAM, h, 0), nil, a, b, active)
}

// PutSignal implements rt.Ctx: each active lane's data put and signal
// increment travel as one PUT_SIGNAL wire command (wire.PackSigCmd),
// resolved at the data cell's owner under that owner's bank lock — the
// store happens-before the increment on the same serialized bank, so
// any observer of the signal also observes the data. Like Inc, the
// operation always routes through the owner's resolver, even when
// local: the signal increment is an atomic (§6). Every send path
// transmits PUT_SIGNAL eagerly (the aggregator at the end of each
// drained batch, the staging queues and archives per signal) so a
// remote waiter is never left spinning on a signal parked in a
// partially-filled per-node queue until end of step.
func (c *ctx) PutSignal(arr *pgas.Array, idx, val []uint64, sig *pgas.Array, sigIdx []uint64, active []bool) {
	active = c.laneMask("PutSignal", active)
	dataID, sigID := arr.ID(), sig.ID()
	for l, on := range active {
		if !on {
			continue
		}
		d, s := arr.Owner(idx[l]), sig.Owner(sigIdx[l])
		if d != s {
			panic(&SignalError{Verb: "PutSignal", Node: c.n.ID,
				DataArr: dataID, DataIdx: idx[l], DataOwner: d,
				SigArr: sigID, SigIdx: sigIdx[l], SigOwner: s})
		}
		c.dests[l] = d
		// Panics if sigIdx overflows the command word.
		c.cmds[l] = wire.PackSigCmd(dataID, sigID, uint32(sigIdx[l]))
	}
	c.send(0, c.cmds[:c.g.Size], idx, val, active)
}

// WaitUntil implements rt.Ctx: the work-group blocks until every
// active lane's local signal cell has reached its threshold
// (sig[sigIdx[l]] >= until[l]). The wait parks cooperatively
// (simt.Group.Park): not-yet-scheduled work-groups of the same launch
// keep executing and the aggregator/resolver goroutines keep
// delivering, so a waiter cannot wedge the launch or trip quiescence —
// the host never enters Quiesce while a kernel is still running. Each
// spin calls the offloader's Progress. The charge is the fixed,
// deterministic Params.WaitUntilNs, not the scheduler-dependent
// wall-clock spin time. On a failed fabric the signal may never come
// (its sender's process is gone), so the wait gives up and the launch
// ends; the Quiesce that follows unwinds Step with the fabric's error.
func (c *ctx) WaitUntil(sig *pgas.Array, sigIdx, until []uint64, active []bool) {
	active = c.laneMask("WaitUntil", active)
	g, me := c.g, c.n.ID
	lanes := 0
	for l, on := range active {
		if !on {
			continue
		}
		lanes++
		if o := sig.Owner(sigIdx[l]); o != me {
			panic(&SignalError{Verb: "WaitUntil", Node: me, SigArr: sig.ID(), SigIdx: sigIdx[l], SigOwner: o})
		}
	}
	if lanes == 0 {
		return
	}
	g.ChargeCycles(g.Device().NsToCycles(c.n.cl.params.WaitUntilNs))
	c.n.Clocks.CountWait()
	if obs.Enabled() {
		obs.Emit(obs.KWait, me, int64(g.ID), int64(lanes), "")
	}
	dist := c.n.cl.dist
	g.Park(func() bool {
		for l, on := range active {
			if on && sig.Load(sigIdx[l]) < until[l] {
				return dist != nil && dist.Err() != nil
			}
		}
		return true
	}, c.off.Progress)
}

// pcqWriter is the Gravel send path (§4.1), shared by the gravel,
// msg-per-lane and cpu-only models: one prefix-sum to pack active
// lanes, one leader reservation (two atomics) in the node's
// producer/consumer queue, one vectorized payload write, one commit.
type pcqWriter struct{ n *Node }

// Offload implements Offloader.
func (w pcqWriter) Offload(g *simt.Group, b Batch) {
	_, count := g.PrefixSumMask(b.Active)
	if count == 0 {
		return
	}
	// Leader reservation: the only global synchronization for up to
	// WGSize messages.
	g.ChargeAtomics(queue.ProducerAtomicsPerReserve)
	// One vectorized payload write: lane l's row offset is its
	// prefix-sum value.
	g.ChargeMasked(wire.SlotRows, b.Active)
	w.n.Enqueue(&b, count)
	g.ChargeMessages(count)
}

// Enqueue writes the batch's count active lanes' messages into one
// slot of the node's producer/consumer queue, in lane order, and
// commits it; it charges nothing. It is pcqWriter's reserve, write and
// commit, for a model whose own Offloader hands its lists to the
// node's aggregator.
func (n *Node) Enqueue(b *Batch, count int) {
	s := n.PCQ.Reserve(count)
	rowCmd, rowDest, rowA, rowB := s.Row(wire.RowCmd), s.Row(wire.RowDest), s.Row(wire.RowA), s.Row(wire.RowB)
	m := 0
	for l, on := range b.Active {
		if on {
			rowCmd[m], rowDest[m], rowA[m], rowB[m] = b.CmdAt(l), uint64(b.Dests[l]), b.A[l], b.V[l]
			m++
		}
	}
	s.Commit()
}

// Progress implements Offloader: the aggregator drains the queue itself.
func (pcqWriter) Progress() {}

// archAppender is the archive strategy's send path (the gravel-archive
// model): the work-group's messages become WF-aggregated appends
// straight into the node's per-destination archives — one reservation
// per (wavefront, distinct destination) — bypassing the
// producer/consumer queue and the CPU repack entirely. Against
// pcqWriter's two atomics per work-group plus per-message repack time,
// that is cheaper under skew and dearer under uniform spray.
type archAppender struct{ ar *agg.Archive }

// Offload implements Offloader. A PUT_SIGNAL stages its destination's
// whole archive at once (agg.Archive's signal liveness rule).
func (o archAppender) Offload(g *simt.Group, b Batch) {
	g.WFAggregateDests(b.Active, b.Dests, func(dest int, lanes []int) {
		o.ar.AppendWF(dest, lanes, b.CmdAt, b.A, b.V)
	})
	g.ChargeMessages(b.N)
}

// Progress implements Offloader by flushing the node's archives: a
// waiter may depend transitively on plain puts still parked in a
// half-filled open segment (only signals stage eagerly).
func (o archAppender) Progress() { o.ar.Flush() }
