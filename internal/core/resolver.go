package core

import (
	"fmt"
	"sync/atomic"

	"gravel/internal/fabric"
	"gravel/internal/obs"
	"gravel/internal/pgas"
	"gravel/internal/rt"
	"gravel/internal/wire"
)

// Sharded receive-side resolution (DESIGN.md §4.12). The paper (§6)
// resolves every received message — and every atomic, local or not — on
// one serial network thread per node. With Config.ResolverShards > 1 the
// fabric demuxes each received queue by destination address
// (fabric.BankOfRecord) and one resolver goroutine per bank applies its
// share; one shard is the paper's network thread, bit-identical in
// results and clocks. Every path applies records through one applier,
// under per-(node, bank) mutexes that keep atomics serialized per bank.

// WireDecodeError reports a received packet that could not be applied:
// a ragged payload, or a record naming an undefined op, an unallocated
// array or an unregistered AM handler. It unwinds Step() — via the
// quiescence path — like a transport PeerDownError, instead of crashing
// a resolver goroutine in a way no caller can recover.
type WireDecodeError struct {
	// Node is the node whose resolver rejected the payload.
	Node int
	// From is the sending node.
	From int
	// Routed reports whether the packet was a routed (§10 gateway) queue.
	Routed bool
	// Bytes is the rejected payload's length.
	Bytes int
	// Err is the wire framing error, or names the bad record.
	Err error
}

func (e *WireDecodeError) Error() string {
	kind := "packet"
	if e.Routed {
		kind = "routed packet"
	}
	return fmt.Sprintf("core: node %d received undecodable %d-byte %s from node %d: %v",
		e.Node, e.Bytes, kind, e.From, e.Err)
}

func (e *WireDecodeError) Unwrap() error { return e.Err }

// bankCounters is one resolver bank's (or one node's bypass path's)
// cumulative work, read by Stats at quiescent phase boundaries.
type bankCounters struct {
	pkts atomic.Int64
	msgs atomic.Int64
	ams  atomic.Int64
	sigs atomic.Int64
}

func (c *bankCounters) add(msgs, ams, sigs int) {
	c.pkts.Add(1)
	c.msgs.Add(int64(msgs))
	c.ams.Add(int64(ams))
	c.sigs.Add(int64(sigs))
}

// checkDecodeErr panics with the recorded receive failure, if any, from
// inside Quiesce: on the goroutine that called Step, where noderun's
// typed-error recovery can see it.
func (cl *Cluster) checkDecodeErr() {
	if e := cl.decodeErr.Load(); e != nil {
		panic(e)
	}
}

// startResolvers registers the node-local bypass and spawns the per-bank
// resolver goroutines for every hosted node. It must run before the
// aggregators start: SetLocalApply must happen-before the first Send.
func (cl *Cluster) startResolvers() {
	cl.fab.SetLocalApply(cl.applyLocal)
	for _, n := range cl.nodes {
		if !cl.fab.Hosts(n.ID) {
			continue
		}
		for b := 0; b < cl.shards; b++ {
			cl.netWG.Add(1)
			go cl.resolve(n, b, cl.fab.BankInbox(n.ID, b))
		}
	}
}

// resolve is one resolver bank of a node's receive side — at one shard,
// exactly the per-node network thread of §6: it resolves each received
// message as a local memory operation; atomics and active messages
// execute here, serialized per bank by the bank mutex.
func (cl *Cluster) resolve(n *Node, bank int, inbox <-chan fabric.Packet) {
	defer cl.netWG.Done()
	for pkt := range inbox {
		ap := applier{cl: cl, node: n.ID, cur: -1}
		relayed := 0
		if pkt.Routed {
			// Gateway role (§10): routed queues arrive whole on bank 0, so
			// relays leave in arrival order. Records for this node apply
			// under their own bank's lock; the rest are re-aggregated for
			// the group's members, no lock held (AppendDirect may block).
			if err := wire.DecodeRouted(pkt.Buf, func(cmd, a, v uint64, dest int) {
				if dest != n.ID {
					ap.unlock()
					relayed++
					n.Agg.AppendDirect(dest, cmd, a, v, cl.params.AggPerMsgNs)
				} else if ap.err == nil {
					ap.record(cmd, a, v)
				}
			}); err != nil {
				ap.err = err
			}
			ap.unlock()
		} else {
			ap.walk(pkt.Buf)
		}
		// A failed packet is still retired, so Quiesce completes and
		// surfaces it. A good one is all this bank's work, whichever
		// locks a routed packet's local records took.
		if !ap.failed(pkt) {
			n.Clocks.AddNetBank(bank, cl.netCharge(pkt.Msgs, len(pkt.Buf), ap.ams, ap.sigs))
			n.Clocks.CountNetMsgs(pkt.Msgs - relayed)
			cl.resv[n.ID][bank].add(pkt.Msgs-relayed, ap.ams, ap.sigs)
			if obs.Enabled() {
				obs.Emit(obs.KResolve, n.ID, int64(bank), int64(pkt.Msgs), "")
				if ap.sigs > 0 {
					obs.Emit(obs.KSignal, n.ID, int64(bank), int64(ap.sigs), "")
				}
			}
		}
		cl.fab.Done(pkt)
	}
}

// applyLocal is the fabric's node-local bypass (Fabric.SetLocalApply): a
// from == to packet resolves on the sending goroutine, whose caller (an
// aggregator pump) holds the aggregator's in-flight guard, so quiescence
// cannot see the node idle mid-apply. Each touched bank is charged as if
// the packet had been demuxed to it — at one shard, the network thread's
// one charge, bit-identical ticks.
func (cl *Cluster) applyLocal(pkt fabric.Packet) {
	n := cl.nodes[pkt.To]
	ap := applier{cl: cl, node: n.ID, cur: -1}
	ap.walk(pkt.Buf)
	if ap.failed(pkt) {
		return
	}
	for b, t := range ap.bank[:cl.shards] {
		if t.msgs > 0 {
			n.Clocks.AddNetBank(b, cl.netCharge(t.msgs, t.msgs*wire.MsgWireBytes, t.ams, t.sigs))
		}
	}
	n.Clocks.CountNetMsgs(pkt.Msgs)
	cl.bypass[n.ID].add(pkt.Msgs, ap.ams, ap.sigs)
	if obs.Enabled() {
		obs.Emit(obs.KResolveBypass, n.ID, int64(pkt.Msgs), int64(ap.ams), "")
		if ap.sigs > 0 {
			obs.Emit(obs.KSignal, n.ID, -1, int64(ap.sigs), "")
		}
	}
}

// netCharge is the network thread's cost of resolving one (sub-)packet.
func (cl *Cluster) netCharge(msgs, bytes, ams, sigs int) float64 {
	p := cl.params
	return p.NetThreadPerPacketNs +
		float64(msgs)*p.NetThreadPerMsgNs +
		float64(bytes)*p.NetThreadPerByteNs +
		float64(ams)*p.NetThreadAMExtraNs +
		float64(sigs)*p.NetThreadSignalExtraNs
}

// applier resolves one packet's records as memory operations on one
// node; it is the only place a record's op is interpreted. It lives on
// its caller's stack for one packet, so concurrent appliers share nothing
// but the bank mutexes. A packet is mostly runs of one command word, so
// load decodes a word once and a record under the cached word costs a
// bank check, a slice index and one atomic.
type applier struct {
	cl   *Cluster
	node int

	// The decoded form of command word cmd. Array IDs are never reused
	// and windows never move, so it cannot go stale.
	cmd    uint64
	h      rt.AMHandler // non-nil: an active message, nothing below applies
	add    bool         // atomic add (OpInc) rather than store
	arr    *pgas.Array  // data array, for indexes outside the window
	local  []uint64     // node's window of arr ...
	lo     uint64       // ... and the global index of local[0]
	sig    *pgas.Array  // non-nil: PUT_SIGNAL, incremented after the store
	sigIdx uint64

	err       error // first failure; nothing is applied after it
	cur       int   // bank whose mutex is held, -1 for none
	ams, sigs int   // the packet's AMs and signals, and its work per bank:
	bank      [fabric.MaxResolverBanks]struct{ msgs, ams, sigs int }
}

// walk applies every record of a direct per-node queue buffer, stopping
// at the first failure, with no bank mutex held on return.
func (ap *applier) walk(buf []byte) {
	n, err := wire.RecordCount(buf)
	ap.err = err
	for i := 0; i < n && ap.record(wire.RecordAt(buf, i)); i++ {
	}
	ap.unlock()
}

// unlock releases the held bank mutex, if any.
func (ap *applier) unlock() {
	if ap.cur >= 0 {
		ap.cl.bankMu[ap.node][ap.cur].Unlock()
		ap.cur = -1
	}
}

// failed reports whether applying pkt failed, recording the cluster's first
// failure (later ones are almost certainly the same) for checkDecodeErr.
func (ap *applier) failed(pkt fabric.Packet) bool {
	if ap.err != nil {
		ap.cl.decodeErr.CompareAndSwap(nil, &WireDecodeError{Node: ap.node, From: pkt.From, Routed: pkt.Routed, Bytes: len(pkt.Buf), Err: ap.err})
	}
	return ap.err != nil
}

// record applies one record under its bank's mutex, which stays held for
// the next: a same-bank run (a demuxed sub-packet, any packet at one shard)
// pays one handoff. It reports false, with ap.err set, if it cannot apply.
func (ap *applier) record(cmd, a, v uint64) bool {
	// 0 keys the empty cache and, op 0 being undefined, is never valid.
	if (cmd != ap.cmd || cmd == 0) && !ap.load(cmd) {
		return false
	}
	b := fabric.BankOfRecord(cmd, a, ap.cl.shards)
	if b != ap.cur {
		ap.unlock()
		ap.cl.bankMu[ap.node][b].Lock()
		ap.cur = b
	}
	t := &ap.bank[b]
	t.msgs++
	if ap.h != nil {
		t.ams++
		ap.ams++
		ap.h(ap.node, a, v)
		return true
	}
	// An index outside the window (another node's cell, or past the array's
	// end) takes the array's owner-resolving accessors, range panic included.
	if i := a - ap.lo; i < uint64(len(ap.local)) {
		if ap.add {
			atomic.AddUint64(&ap.local[i], v)
		} else {
			atomic.StoreUint64(&ap.local[i], v)
		}
	} else if ap.add {
		ap.arr.Add(a, v)
	} else {
		ap.arr.Store(a, v)
	}
	if ap.sig != nil {
		// Store then increment under one bank lock: the signal's owner is
		// the data's owner (enforced at the verb), so a waiter that loads
		// the incremented signal is guaranteed to load the stored data.
		ap.sig.Add(ap.sigIdx, 1)
		t.sigs++
		ap.sigs++
	}
	return true
}

// load decodes command word cmd into the cache and validates everything
// it names, so a bad record costs the per-record path nothing and fails
// the run with a typed error instead of panicking a resolver goroutine.
func (ap *applier) load(cmd uint64) bool {
	op, h, arr := wire.UnpackCmd(cmd)
	ap.cmd, ap.h, ap.sig, ap.add = cmd, nil, nil, op == wire.OpInc
	switch op {
	case wire.OpAM:
		if int(h) < len(ap.cl.handlers) {
			ap.h = ap.cl.handlers[h]
		}
		if ap.h == nil {
			ap.err = fmt.Errorf("core: record names unregistered AM handler %d (cmd %#x)", h, cmd)
		}
	case wire.OpPutSignal:
		_, sArr, sIdx := wire.UnpackSigCmd(cmd)
		if ap.sig = ap.cl.space.Lookup(sArr); ap.sig == nil {
			ap.err = fmt.Errorf("core: record names unallocated signal array %d (cmd %#x)", sArr, cmd)
		}
		ap.sigIdx = uint64(sIdx)
		fallthrough
	case wire.OpPut, wire.OpInc:
		if ap.arr = ap.cl.space.Lookup(arr); ap.arr != nil {
			ap.local, ap.lo = ap.arr.LocalWindow(ap.node)
		} else {
			ap.err = fmt.Errorf("core: record names unallocated array %d (cmd %#x)", arr, cmd)
		}
	default:
		ap.err = fmt.Errorf("core: record has undefined op %v (cmd %#x)", op, cmd)
	}
	return ap.err == nil
}
