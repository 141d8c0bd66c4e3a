package fabric

import (
	"fmt"

	"gravel/internal/timemodel"
)

// Chan is the default in-process transport: delivery is real — packets
// move between in-process nodes through channels — while timing is
// virtual: every packet charges LogGP-style wire occupancy (Alpha +
// bytes/Beta) to the sender's and receiver's clocks.
//
// Backpressure mirrors the paper's configuration of a bounded number of
// in-flight per-node queues per destination: each node's inbox is a
// bounded channel, and senders block when a receiver falls behind.
// Network threads must never send while processing (true for all
// workloads here), so this cannot deadlock.
//
// With more than one resolver bank the fabric scatters each packet's
// records into per-bank sub-packets at the send boundary (same address
// -> same bank, so per-word ordering survives). One bank is the paper's
// serial network thread, delivered through the identical single-channel
// path.
type Chan struct {
	*Metrics
	*Endpoint
	params *timemodel.Params
	clocks []*timemodel.Clocks
}

// New creates a channel fabric over the given per-node clocks with a
// single resolver bank (the paper's serial network thread).
func New(params *timemodel.Params, clocks []*timemodel.Clocks) *Chan {
	return NewBanked(params, clocks, 1)
}

// NewBanked creates a channel fabric with the given number of resolver
// banks per node (0 means 1; must be a power of two, max
// MaxResolverBanks).
func NewBanked(params *timemodel.Params, clocks []*timemodel.Clocks, banks int) *Chan {
	n := len(clocks)
	if n == 0 {
		panic("fabric: no nodes")
	}
	// The paper's bounded number of in-flight per-node queues per
	// destination, from every sender.
	ep, err := NewEndpoint(clocks, AllNodes, banks, max(4, params.QueuesPerDest*n))
	if err != nil {
		panic(err)
	}
	return &Chan{Metrics: NewMetrics(n), Endpoint: ep, params: params, clocks: clocks}
}

// Send transmits one per-node queue from node `from` to node `to`,
// charging wire time to both endpoints. It blocks if the receiver's
// inbox is full (finite in-flight queue credit, §6).
func (f *Chan) Send(from, to int, buf []byte, msgs int) {
	p := Packet{From: from, To: to, Buf: buf, Msgs: msgs}
	if f.Depart(p) {
		return
	}
	if !f.Deliver(p) {
		panic("fabric: send on a closed fabric")
	}
}

// Depart is the virtual wire's send side, which the loopback transport
// (this fabric with a frame codec spliced in) shares: it checks the
// destination and counts p's records departed in the sender's ledger,
// then either counts a node-local packet — local atomics are routed
// through the local network thread but never touch the wire (§6) — or
// charges a remote one's LogGP occupancy (Alpha + bytes/Beta) to both
// clocks. It reports whether the bypass already applied p.
func (f *Chan) Depart(p Packet) (applied bool) {
	if p.To < 0 || p.To >= f.Nodes() {
		panic(fmt.Sprintf("fabric: send to invalid node %d", p.To))
	}
	f.clocks[p.From].CountDeparted(Records(p.Msgs))
	if p.From == p.To {
		f.clocks[p.From].CountSelfPacket()
		return f.Bypass(p)
	}
	ns := f.params.WireNs(len(p.Buf))
	f.clocks[p.From].AddWireSend(ns)
	f.clocks[p.To].AddWireRecv(ns)
	f.ObserveWire(f.clocks[p.From], p.From, p.To, len(p.Buf))
	return false
}

var _ Fabric = (*Chan)(nil)
