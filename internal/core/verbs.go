package core

import "fmt"

// MaskError reports a lane mask that violates the rt.Ctx convention: a
// non-nil active mask must be exactly as long as the work-group (nil
// means all lanes).
type MaskError struct {
	// Verb is the rt.Ctx verb that received the mask.
	Verb string
	// Got is the mask length; Want the work-group size.
	Got, Want int
}

func (e *MaskError) Error() string {
	return fmt.Sprintf("core: %s: active mask has %d entries for a %d-lane work-group (nil means all lanes)", e.Verb, e.Got, e.Want)
}

// SignalError reports a PutSignal whose signal cell is not co-owned
// with its data cell, or a WaitUntil on a cell the waiting node does
// not own. Both are programming errors — the signal/wait protocol only
// works when signals land where the waiter can load them — so the
// verbs panic with the full addressing context.
type SignalError struct {
	// Verb is "PutSignal" or "WaitUntil".
	Verb string
	// Node is the node executing the verb.
	Node int
	// DataArr/DataIdx/DataOwner describe the data cell (PutSignal only).
	DataArr   uint16
	DataIdx   uint64
	DataOwner int
	// SigArr/SigIdx/SigOwner describe the signal cell.
	SigArr   uint16
	SigIdx   uint64
	SigOwner int
}

func (e *SignalError) Error() string {
	if e.Verb == "WaitUntil" {
		return fmt.Sprintf("core: WaitUntil on node %d: signal cell %d of array %d is owned by node %d; waits must address local cells",
			e.Node, e.SigIdx, e.SigArr, e.SigOwner)
	}
	return fmt.Sprintf("core: %s on node %d: data cell %d of array %d is owned by node %d but signal cell %d of array %d by node %d; signal cells must be co-owned with their data (allocate with SymAlloc)",
		e.Verb, e.Node, e.DataIdx, e.DataArr, e.DataOwner, e.SigIdx, e.SigArr, e.SigOwner)
}

// DestError reports an active message addressed to a node outside
// [0, Nodes), or sent by HostAM from one; or HostAM from, or a Launch
// on, a node this process does not host (Node and Dest both in range).
// The verb front-end, HostAM and RunNodes raise it before anything is
// enqueued or launched; downstream it would index past a per-destination
// table on an aggregator goroutine, or reach a node that has no device.
type DestError struct {
	// Verb is the rt.Ctx verb that received the destination, HostAM
	// (whose from may be the bad node), or Launch.
	Verb string
	// Node is the node executing the verb (HostAM's from, the node
	// launched on); Lane the offending lane.
	Node, Lane int
	// Dest is the destination named (a Launch's node); Nodes the cluster
	// size.
	Dest, Nodes int
}

func (e *DestError) Error() string {
	switch {
	case uint(e.Node) < uint(e.Nodes) && uint(e.Dest) < uint(e.Nodes):
		return fmt.Sprintf("core: %s on node %d, which this process does not host", e.Verb, e.Node)
	case e.Verb == "HostAM":
		return fmt.Sprintf("core: HostAM from node %d to node %d of a %d-node cluster", e.Node, e.Dest, e.Nodes)
	}
	return fmt.Sprintf("core: %s on node %d: lane %d addresses node %d of a %d-node cluster", e.Verb, e.Node, e.Lane, e.Dest, e.Nodes)
}
