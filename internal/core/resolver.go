package core

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"gravel/internal/fabric"
	"gravel/internal/obs"
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
// under per-(node, bank) mutexes that make each bank its cells' one owner.

// WireDecodeError reports a received packet that could not be applied:
// a ragged payload, or a record naming an undefined op, an unallocated
// array, an unregistered AM handler or a cell the node does not own. It
// unwinds Step() — via the quiescence path — like a transport
// PeerDownError, instead of crashing a resolver goroutine.
type WireDecodeError struct {
	// Node is the node whose resolver rejected the payload.
	Node int
	// From is the sending node.
	From int
	// Bytes is the rejected payload's length.
	Bytes int
	// Err is the wire framing error, or names the bad record.
	Err error
}

func (e *WireDecodeError) Error() string {
	return fmt.Sprintf("core: node %d received undecodable %d-byte packet from node %d: %v",
		e.Node, e.Bytes, e.From, e.Err)
}

func (e *WireDecodeError) Unwrap() error { return e.Err }

// checkRecvFailure panics with the recorded receive failure, if any,
// from inside Quiesce: on the goroutine that called Step, where
// noderun's typed-error recovery can see it.
func (cl *Cluster) checkRecvFailure() {
	if r := cl.recvFailure.Load(); r != nil {
		panic(*r)
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
		cl.resolvePacket(n, bank, pkt)
		// A failed packet is still retired, so Quiesce completes and
		// surfaces it.
		cl.fab.Done(pkt)
	}
}

// resolvePacket applies one packet of bank's inbox.
func (cl *Cluster) resolvePacket(n *Node, bank int, pkt fabric.Packet) {
	ap := applier{cl: cl, node: n.ID}
	defer ap.contain()
	ap.walk(pkt.Buf, bank, bank+1)
	if !ap.failed(pkt) {
		n.Clocks.AddNetBank(bank, cl.netCharge(pkt.Msgs, len(pkt.Buf), ap.ams, ap.sigs))
		n.Clocks.CountResolved(bank, pkt.Msgs, ap.ams, ap.sigs)
		if obs.Enabled() {
			obs.Emit(obs.KResolve, n.ID, int64(bank), int64(pkt.Msgs), "")
			if ap.sigs > 0 {
				obs.Emit(obs.KSignal, n.ID, int64(bank), int64(ap.sigs), "")
			}
		}
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
	ap := applier{cl: cl, node: n.ID}
	defer ap.contain()
	ap.walk(pkt.Buf, 0, cl.shards)
	if ap.failed(pkt) {
		return
	}
	for b, t := range ap.bank[:cl.shards] {
		if t.msgs > 0 {
			n.Clocks.AddNetBank(b, cl.netCharge(t.msgs, t.msgs*wire.MsgWireBytes, t.ams, t.sigs))
		}
	}
	n.Clocks.CountBypass(pkt.Msgs, ap.ams, ap.sigs)
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
// but the bank mutexes. Its unit of work is the run, one bank's consecutive
// records of one command word: decoded once (load), one loop, one count.
type applier struct {
	cl   *Cluster
	node int

	// The decoded form of command word cmd. Array IDs are never reused
	// and windows never move, so it cannot go stale.
	cmd   uint64
	h     rt.AMHandler // non-nil: an active message, nothing below applies
	add   bool         // add (OpInc) rather than store
	owner bool         // the bank is the cell's only writer: a plain add
	local []uint64     // node's window of the data array ...
	lo    uint64       // ... and the global index of local[0]
	sig   *uint64      // non-nil: PUT_SIGNAL, incremented after the store

	err       error       // first failure; nothing is applied after it
	held      *sync.Mutex // the bank mutex a pass runs under, for contain
	ams, sigs int         // the packet's AMs and signals, and its work per bank:
	bank      [fabric.MaxResolverBanks]tally
}

type tally struct{ msgs, ams, sigs int }

// walk applies the records of a per-node queue buffer that banks
// [b0, b1) own — one bank, which then owns the whole buffer (a demuxed
// sub-packet, or any packet at one shard), or all of them: one pass per bank that has any, under that bank's mutex,
// stopping at the first failure.
func (ap *applier) walk(buf []byte, b0, b1 int) {
	if _, ap.err = wire.RecordCount(buf); ap.err != nil {
		return
	}
	mask := uint64(b1 - b0 - 1) // 0, or the address bits that pick a bank
	for b, met := b0, ^uint64(0); b < b1 && ap.err == nil; b++ {
		if met>>b&1 != 0 {
			mu := &ap.cl.bankMu[ap.node][b]
			mu.Lock()
			ap.held = mu
			met = ap.pass(buf, b, mask)
			ap.held = nil
			mu.Unlock()
		}
	}
}

// failed reports whether applying pkt failed, recording the cluster's first
// failure (later ones are almost certainly the same) for checkRecvFailure.
func (ap *applier) failed(pkt fabric.Packet) bool {
	if ap.err != nil {
		ap.cl.fail(&WireDecodeError{Node: ap.node, From: pkt.From, Bytes: len(pkt.Buf), Err: ap.err})
	}
	return ap.err != nil
}

// contain is deferred once per packet. An AM handler is the
// application's code on a resolver goroutine (or an aggregator's, through
// the bypass): if it panics — HostAM's *DestError, say — the bank mutex
// it ran under is released, the rest of the packet is dropped uncharged,
// and the panic becomes the cluster's first receive failure, which
// Quiesce raises on the Step goroutine, instead of killing the process.
func (ap *applier) contain() {
	if r := recover(); r != nil {
		if ap.held != nil {
			ap.held.Unlock()
		}
		ap.cl.fail(r)
	}
}

// fail records r as the receive side's failure unless one came first.
func (cl *Cluster) fail(r any) { cl.recvFailure.CompareAndSwap(nil, &r) }

// passChunk is how many records pass lists at a time.
const passChunk = 256

// pass applies bank b's records of buf with b's mutex held: all of buf at
// mask 0, else those whose address has bits mask equal to b (an AM counts
// as address 0, as in fabric.BankOfRecord), returning the set of banks
// whose records it met. A chunk at a time, it lists the bank's records
// without a branch (membership is a coin flip no predictor wins) and
// applies the list run by run, all but a record's two arguments hoisted
// out of the run's loop. A cell outside the node's window fails the
// packet: a node applies only cells it owns.
func (ap *applier) pass(buf []byte, b int, mask uint64) (met uint64) {
	var list [passChunk]uint16 // a chunk's record offsets that are b's; at mask 0, all
	for i := 0; mask == 0 && i < min(len(buf)/wire.MsgWireBytes, passChunk); i++ {
		list[i] = uint16(i * wire.MsgWireBytes)
	}
	t, want := &ap.bank[b], uint64(b)&mask
	for len(buf) > 0 && ap.err == nil {
		chunk := buf[:min(len(buf), passChunk*wire.MsgWireBytes)]
		buf = buf[len(chunk):]
		mine := list[:len(chunk)/wire.MsgWireBytes]
		if mask != 0 {
			k := 0
			for off := 0; off < len(chunk); off += wire.MsgWireBytes {
				rec, m := chunk[off:][:wire.MsgWireBytes], mask
				if wire.Op(rec[0]) == wire.OpAM {
					m = 0
				}
				bank := binary.LittleEndian.Uint64(rec[8:]) & m
				met |= 1 << bank
				list[k] = uint16(off)
				if bank == want {
					k++
				}
			}
			mine = list[:k]
		}
		for k := 0; k < len(mine) && ap.err == nil; {
			cmd := binary.LittleEndian.Uint64(chunk[mine[k]:])
			// 0 keys the empty cache and, op 0 being undefined, is never valid.
			if (cmd != ap.cmd || cmd == 0) && !ap.load(cmd) {
				return met
			}
			h, add, owner, local, lo, sig := ap.h, ap.add, ap.owner, ap.local, ap.lo, ap.sig
			first := k
			for ; k < len(mine); k++ {
				rec := chunk[mine[k]:][:wire.MsgWireBytes]
				a, v := binary.LittleEndian.Uint64(rec[8:]), binary.LittleEndian.Uint64(rec[16:])
				if binary.LittleEndian.Uint64(rec) != cmd {
					break
				} else if h != nil {
					h(ap.node, a, v)
				} else if i := a - lo; i >= uint64(len(local)) {
					_, _, arr := wire.UnpackCmd(cmd)
					ap.err = notOwned(a, arr, ap.node)
					break
				} else if owner {
					local[i] += v
				} else if add {
					atomic.AddUint64(&local[i], v)
				} else {
					atomic.StoreUint64(&local[i], v)
					if sig != nil {
						// After the store, under the same bank lock (the verb
						// makes the signal's owner the data's): a waiter that
						// loads the incremented signal loads the stored data.
						atomic.AddUint64(sig, 1)
					}
				}
			}
			n := k - first
			t.msgs += n
			if h != nil {
				t.ams, ap.ams = t.ams+n, ap.ams+n
			} else if sig != nil {
				t.sigs, ap.sigs = t.sigs+n, ap.sigs+n
			}
		}
	}
	return met
}

func notOwned(cell uint64, arr uint16, node int) error {
	return fmt.Errorf("core: record addresses cell %d of array %d, which node %d does not own", cell, arr, node)
}

// load decodes command word cmd into the cache and validates everything
// it names, so a bad record costs the run's loop nothing and fails the
// packet with a typed error instead of panicking a resolver goroutine.
// It also decides the ownership rule (DESIGN.md §4.12): between Step
// boundaries a data cell's bank is its only writer through Inc, so an Inc
// is a plain add under the bank mutex. What a kernel can store to or poll
// mid-step keeps its atomic: Put data, signals, every symmetric-heap
// array, and everything under LocalAtomicsDirect.
func (ap *applier) load(cmd uint64) bool {
	op, h, arr := wire.UnpackCmd(cmd)
	ap.cmd, ap.h, ap.sig, ap.add, ap.owner = cmd, nil, nil, op == wire.OpInc, false
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
		if s := ap.cl.space.Lookup(sArr); s == nil {
			ap.err = fmt.Errorf("core: record names unallocated signal array %d (cmd %#x)", sArr, cmd)
		} else if cells, lo := s.LocalWindow(ap.node); uint64(sIdx)-lo >= uint64(len(cells)) {
			ap.err = notOwned(uint64(sIdx), sArr, ap.node)
		} else {
			ap.sig = &cells[uint64(sIdx)-lo]
		}
		fallthrough
	case wire.OpPut, wire.OpInc:
		if a := ap.cl.space.Lookup(arr); a != nil {
			ap.local, ap.lo = a.LocalWindow(ap.node)
			ap.owner = ap.add && !a.Sym() && !ap.cl.cfg.LocalAtomicsDirect
		} else if ap.err == nil {
			ap.err = fmt.Errorf("core: record names unallocated array %d (cmd %#x)", arr, cmd)
		}
	default:
		ap.err = fmt.Errorf("core: record has undefined op %v (cmd %#x)", op, cmd)
	}
	return ap.err == nil
}
