// Package rt defines the runtime interface every GPU networking model
// implements (Gravel in package core; the coprocessor, message-per-lane,
// coalesced-APIs and CPU-only baselines in package models).
//
// Applications are written once against this interface (the
// message-per-lane / Gravel style of Figure 4b) and can then be executed
// under any model — this is how the paper's Figure 15 style comparison
// is produced.
package rt

import (
	"errors"

	"gravel/internal/ckpt"
	"gravel/internal/pgas"
	"gravel/internal/simt"
)

// AMHandler is an active-message handler executed by the destination
// node's network thread (§6). Handlers run serialized per node and must
// be commutative. A handler may initiate follow-up messages with
// System.HostAM (request/reply protocols); cascades must be finite.
type AMHandler func(node int, a, b uint64)

// Ctx is the per-work-group view a kernel gets of the networking model.
//
// Every verb follows one lane-mask convention: slice arguments are
// indexed by lane, and exactly the lanes with active[lane] true
// participate (diverged WG-level semantics, §5). A nil active mask
// means "all lanes participate"; a non-nil mask must be exactly
// Group().Size entries long — implementations funnel violations through
// a single typed *core.MaskError panic rather than per-verb ad-hoc
// checks. Lane-indexed value slices (idx, val, delta, a, b, dest,
// sigIdx) need only cover the active lanes but are conventionally
// WG-sized.
type Ctx interface {
	// Node returns the node executing this work-group.
	Node() int
	// Nodes returns the cluster size.
	Nodes() int
	// Group returns the SIMT work-group for vector operations.
	Group() *simt.Group

	// Inc atomically adds delta[l] to arr[idx[l]] for each active lane.
	// Like all atomics it is routed through the owner's network thread
	// even when local (§6).
	Inc(arr *pgas.Array, idx, delta []uint64, active []bool)
	// Put stores val[l] to arr[idx[l]] for each active lane. Local PUTs
	// execute directly as GPU stores; remote PUTs travel the network.
	Put(arr *pgas.Array, idx, val []uint64, active []bool)
	// AM invokes handler h at dest[l] with arguments (a[l], b[l]) for
	// each active lane.
	AM(h uint8, dest []int, a, b []uint64, active []bool)

	// PutSignal stores val[l] to arr[idx[l]] and then atomically adds 1
	// to sig[sigIdx[l]], as one ordered wire command resolved at the
	// owner of arr[idx[l]] (NVSHMEM-style signalled put): any observer
	// that sees the signal increment also sees the data store. The
	// signal cell must be owned by the same node as the data cell
	// (co-locate them with pgas.Space.SymAlloc), and sigIdx must be
	// below wire.MaxSigIdx. PutSignal transmits eagerly — the staged
	// per-destination queue is flushed — so a remote waiter is never
	// left spinning on a signal parked in an aggregation buffer.
	PutSignal(arr *pgas.Array, idx, val []uint64, sig *pgas.Array, sigIdx []uint64, active []bool)
	// WaitUntil blocks the work-group until sig[sigIdx[l]] >= until[l]
	// for every active lane. Every addressed cell must be local to the
	// executing node (signals are delivered to the waiter's symmetric
	// cell; see PutSignal). The wait parks cooperatively: other
	// work-groups — including ones not yet scheduled — keep executing,
	// message delivery keeps progressing, and quiescence detection does
	// not observe a false idle, so a waiting WG cannot deadlock
	// termination detection. Signals a wait depends on must not be
	// issued by later work-groups of the same node's grid. The wait is
	// charged a fixed virtual-time cost per call (deterministic, unlike
	// wall-clock spin time).
	WaitUntil(sig *pgas.Array, sigIdx, until []uint64, active []bool)
}

// Kernel is GPU code launched across a grid of work-items; it is invoked
// once per work-group.
type Kernel func(c Ctx)

// Where says which part of a run one call executes: every application
// has one body, and this is its context argument. Whole() is the full
// in-process run; a distributed worker names its node and hands over
// the cluster's collectives and, for an elastic run, its checkpoints.
type Where struct {
	// Node is the node whose share of the work this call launches; -1
	// launches every node's (the whole cluster lives in this process).
	// One node's results (sums, checksums) cover its shard only and add
	// up across the cluster to the whole run's.
	Node int
	// Coll carries the between-step agreements of a multi-process run
	// (nil = single process, see AllReduce); apps without any ignore it.
	Coll Collectives
	// Ckpt restores and saves the shard; the zero value does neither.
	// Only apps the registry marks elastic read it.
	Ckpt ckpt.Run
}

// Whole is the run of every node in this process.
func Whole() Where { return Where{Node: -1} }

// Full reports whether every node's share runs here.
func (w Where) Full() bool { return w.Node < 0 }

// Runs reports whether node's share of the work runs here.
func (w Where) Runs(node int) bool { return w.Node < 0 || w.Node == node }

// Err rejects the one combination no app can run: checkpoints are
// per-shard, so a whole-cluster run has nothing to restore or save.
func (w Where) Err() error {
	if w.Full() && w.Ckpt.Active() {
		return errors.New("rt: a checkpointed run is one node's shard, not the whole cluster")
	}
	return nil
}

// DestCount is one destination's share of the wire traffic.
type DestCount struct {
	Packets, Bytes int64
}

// System is one networking model instantiated over a simulated cluster.
type System interface {
	// Name identifies the model ("gravel", "coprocessor", ...).
	Name() string
	// Nodes returns the cluster size.
	Nodes() int
	// Space returns the cluster's global address space.
	Space() *pgas.Space
	// RegisterAM registers an active-message handler, returning its ID.
	// An ID is one byte: the 257th panics.
	RegisterAM(h AMHandler) uint8

	// Step launches kernel k with grid[i] work-items on node i, for
	// every node (a grid of another length panics), and returns after cluster-wide quiescence (every initiated message
	// applied). scratchPerWG is the kernel's scratchpad demand in bytes.
	Step(name string, grid []int, scratchPerWG int, k Kernel)

	// ChargeHost adds ns of non-overlappable host time to every node
	// (host-side serial sections between kernels).
	ChargeHost(ns float64)

	// HostAM initiates an active message from host context on node
	// from. Its primary use is inside AM handlers, building
	// request/reply protocols (e.g. remote hash-table lookups); the
	// message is applied before the enclosing Step returns.
	HostAM(from int, h uint8, dest int, a, b uint64)

	// VirtualTimeNs returns total virtual time elapsed across all steps.
	VirtualTimeNs() float64
	// Stats returns the versioned statistics snapshot: cumulative
	// totals by subsystem, the last steps' deltas and per-name sums.
	Stats() Stats

	// Close releases background goroutines. The system is unusable
	// afterwards.
	Close()
}
