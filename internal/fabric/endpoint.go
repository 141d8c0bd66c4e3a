package fabric

import (
	"fmt"
	"sync/atomic"

	"gravel/internal/park"
	"gravel/internal/wire"
)

// Endpoint is the receive side every fabric embeds: the bounded
// per-bank inboxes of the nodes this process hosts (§6's finite number
// of per-node queues in flight), the node-local bypass, the bank demux,
// and the one count of packets between Deliver and Done that quiescence
// reads. A fabric keeps only its send side and whatever it counts in
// units other than packets (Loopback's frames on the wire, TCP's
// cluster-wide frame counters).
type Endpoint struct {
	banks int
	// inbox is [node][bank]; a node another process hosts has a row of
	// nil channels, so nothing can be delivered to it or ranged from it.
	inbox [][]chan Packet

	// localApply, when set (SetLocalApply, before the first Send),
	// resolves from == to packets synchronously instead of
	// round-tripping them through an inbox.
	localApply func(Packet)

	inflight atomic.Int64

	// progress is what a thread waiting for the fabric to go quiet parks
	// on (Fabric.Progress); Done wakes it when inflight reaches zero.
	progress park.Event
}

// NewEndpoint creates the inboxes, each depth packets deep, of the
// nodes for which hosts reports true, with the given number of resolver
// banks per node (0 means 1; must be a power of two, max
// MaxResolverBanks).
func NewEndpoint(nodes int, hosts func(node int) bool, banks, depth int) (*Endpoint, error) {
	if banks == 0 {
		banks = 1
	}
	if !ValidBanks(banks) {
		return nil, fmt.Errorf("fabric: resolver banks %d must be a power of two in [1, %d]", banks, MaxResolverBanks)
	}
	e := &Endpoint{banks: banks, inbox: make([][]chan Packet, nodes)}
	for n := range e.inbox {
		e.inbox[n] = make([]chan Packet, banks)
		if !hosts(n) {
			continue
		}
		for b := range e.inbox[n] {
			e.inbox[n][b] = make(chan Packet, depth)
		}
	}
	return e, nil
}

// AllNodes is the hosts predicate of an in-process fabric.
func AllNodes(int) bool { return true }

// Nodes returns the cluster size.
func (e *Endpoint) Nodes() int { return len(e.inbox) }

// Hosts implements Fabric: a node is hosted where its inboxes are.
func (e *Endpoint) Hosts(node int) bool { return e.inbox[node][0] != nil }

// Banks implements Fabric.
func (e *Endpoint) Banks() int { return e.banks }

// BankInbox implements Fabric. For a node this process does not host it
// returns a nil channel.
func (e *Endpoint) BankInbox(node, bank int) <-chan Packet { return e.inbox[node][bank] }

// Inbox is BankInbox(node, 0): with one bank, the node's whole traffic.
func (e *Endpoint) Inbox(node int) <-chan Packet { return e.inbox[node][0] }

// SetLocalApply implements Fabric. It must be called before the first
// Send.
func (e *Endpoint) SetLocalApply(fn func(Packet)) { e.localApply = fn }

// Bypass resolves a node-local direct packet through the SetLocalApply
// hook on the calling goroutine and recycles its buffer, reporting
// whether it did. No inbox hop and no in-flight accounting: the packet
// is fully applied when Bypass returns, which is strictly earlier than
// the quiescence protocol could have observed it. Routed packets are
// never bypassed (the gateway relays them from bank 0, in order).
func (e *Endpoint) Bypass(p Packet) bool {
	if p.From != p.To || p.Routed || e.localApply == nil {
		return false
	}
	e.localApply(p)
	wire.PutBuf(p.Buf)
	return true
}

// Deliver hands p to its node's inboxes, blocking when a bank falls
// behind. With one bank, or for a routed packet, or for a buffer that
// is not a whole number of records (bank 0's resolver reports that one
// as a typed decode failure), p lands whole on bank 0. Otherwise its
// records are scattered into per-bank sub-packets (Sub set, p's buffer
// recycled) pushed in ascending bank order, and scattered is true.
//
// Every sub-packet is counted in flight before the first is pushed:
// otherwise a fast bank could apply and Done its share while a sibling
// is still unpushed, dipping the count to zero mid-delivery.
//
// ok is false if the inboxes were closed underneath the push; the
// packets that never reached an inbox are retired.
func (e *Endpoint) Deliver(p Packet) (scattered, ok bool) {
	counted, pushed := 0, 0
	defer func() {
		if recover() != nil {
			e.inflight.Add(int64(pushed - counted))
			ok = false
		}
	}()
	if e.banks == 1 || p.Routed || len(p.Buf)%wire.MsgWireBytes != 0 {
		counted = 1
		e.inflight.Add(1)
		e.inbox[p.To][0] <- p
		pushed = 1
		return false, true
	}
	var subs [MaxResolverBanks]Packet
	n := 0
	ScatterBanks(p.Buf, e.banks, func(bank int, buf []byte, msgs int) {
		subs[n] = Packet{From: p.From, To: p.To, Buf: buf, Msgs: msgs, Bank: bank, Sub: true}
		n++
	})
	wire.PutBuf(p.Buf)
	counted = n
	e.inflight.Add(int64(n))
	for ; pushed < n; pushed++ {
		e.inbox[p.To][subs[pushed].Bank] <- subs[pushed]
	}
	return true, true
}

// Done must be called by the network thread after fully applying a
// packet; quiescence detection depends on it. It recycles the packet's
// buffer into the wire pool: a whole packet travels zero-copy from the
// sender's builder, so this completes the pooled buffer lifecycle.
func (e *Endpoint) Done(p Packet) {
	if e.inflight.Add(-1) == 0 {
		e.progress.Wake()
	}
	wire.PutBuf(p.Buf)
}

// Idle reports whether no packet is between Deliver and Done.
func (e *Endpoint) Idle() bool { return e.inflight.Load() == 0 }

// Progress implements Fabric. A fabric assembled without an endpoint
// (the transport tests' hand-built send sides) has no waiters: nil.
func (e *Endpoint) Progress() *park.Event {
	if e == nil {
		return nil
	}
	return &e.progress
}

// Close closes all inboxes; network threads drain and exit.
func (e *Endpoint) Close() {
	for _, node := range e.inbox {
		for _, ch := range node {
			if ch != nil {
				close(ch)
			}
		}
	}
}
