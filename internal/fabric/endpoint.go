package fabric

import (
	"fmt"

	"gravel/internal/park"
	"gravel/internal/timemodel"
	"gravel/internal/wire"
)

// Endpoint is the receive side every fabric embeds: the bounded
// per-bank inboxes of the nodes this process hosts (§6's finite number
// of per-node queues in flight), the node-local bypass, the bank demux,
// and the consumed half of the quiescence ledger, whose departed half a
// fabric's send side counts (DESIGN.md §4.14).
type Endpoint struct {
	banks int
	// inbox is [node][bank]; a node another process hosts has a row of
	// nil channels, so nothing can be delivered to it or ranged from it.
	inbox [][]chan Packet

	// clocks are the nodes' ledgers, indexed like inbox.
	clocks []*timemodel.Clocks

	// localApply, when set (SetLocalApply, before the first Send),
	// resolves from == to packets synchronously instead of
	// round-tripping them through an inbox.
	localApply func(Packet)

	// progress is what a thread waiting for the fabric to go quiet parks
	// on (Fabric.Progress); every retirement wakes it.
	progress park.Event
}

// Records is what the ledger counts a packet of msgs messages as: an
// empty one counts one, so it too holds quiet off until it is retired.
func Records(msgs int) int { return max(msgs, 1) }

// NewEndpoint creates the inboxes, each depth packets deep, of the
// nodes for which hosts reports true, with the given number of resolver
// banks per node (0 means 1; must be a power of two, max
// MaxResolverBanks). clocks holds one ledger per node of the cluster.
func NewEndpoint(clocks []*timemodel.Clocks, hosts func(node int) bool, banks, depth int) (*Endpoint, error) {
	if banks == 0 {
		banks = 1
	}
	if !ValidBanks(banks) {
		return nil, fmt.Errorf("fabric: resolver banks %d must be a power of two in [1, %d]", banks, MaxResolverBanks)
	}
	e := &Endpoint{banks: banks, inbox: make([][]chan Packet, len(clocks)), clocks: clocks}
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

// Bypass resolves a node-local packet through the SetLocalApply hook on
// the calling goroutine, recycles its buffer and retires it, reporting
// whether it did. No inbox hop: the packet is fully applied when Bypass
// returns.
func (e *Endpoint) Bypass(p Packet) bool {
	if p.From != p.To || e.localApply == nil {
		return false
	}
	e.localApply(p)
	wire.PutBuf(p.Buf)
	e.Retire(p.To, Records(p.Msgs))
	return true
}

// Deliver hands p to its node's inboxes, blocking when a bank falls
// behind. With one bank, or for a buffer that is not a whole number of
// records (bank 0's resolver reports that one as a typed decode
// failure), p lands whole on bank 0. Otherwise its records are
// scattered into per-bank sub-packets (p's buffer recycled)
// pushed in ascending bank order; the sub-packets carry p's records
// between them, and whatever of p's ledger count they do not (an empty
// packet's one) is retired here.
//
// ok is false if the inboxes were closed underneath the push; the
// records that never reached an inbox are retired.
func (e *Endpoint) Deliver(p Packet) (ok bool) {
	pushed := 0 // records that reached an inbox
	defer func() {
		if recover() != nil {
			e.Retire(p.To, Records(p.Msgs)-pushed)
			ok = false
		}
	}()
	if e.banks == 1 || len(p.Buf)%wire.MsgWireBytes != 0 {
		e.inbox[p.To][0] <- p
		return true
	}
	var subs [MaxResolverBanks]Packet
	n := 0
	ScatterBanks(p.Buf, e.banks, func(bank int, buf []byte, msgs int) {
		subs[n] = Packet{From: p.From, To: p.To, Buf: buf, Msgs: msgs, Bank: bank}
		n++
	})
	wire.PutBuf(p.Buf)
	for _, s := range subs[:n] {
		e.inbox[p.To][s.Bank] <- s
		pushed += s.Msgs
	}
	if rest := Records(p.Msgs) - pushed; rest != 0 {
		e.Retire(p.To, rest)
	}
	return true
}

// Done must be called by the network thread after fully applying a
// packet; quiescence detection depends on it. It recycles the packet's
// buffer into the wire pool — a whole packet travels zero-copy from the
// sender's builder, so this completes the pooled buffer lifecycle — and
// retires the packet's records.
func (e *Endpoint) Done(p Packet) {
	wire.PutBuf(p.Buf)
	e.Retire(p.To, Records(p.Msgs))
}

// Retire counts records bound for node consumed — applied, or dropped
// on the way in — and wakes whoever waits for the ledger to balance.
func (e *Endpoint) Retire(node, records int) {
	e.clocks[node].CountConsumed(records)
	e.progress.Wake()
}

// Observe is the one quiet observation (DESIGN.md §4.14) over the
// ledgers in clocks: it reads consumed, then staged, then departed, then
// consumed again. staged reports whether anything is still short of the
// fabric, and may flush it on the way; nil means nothing can be. Staged
// is read before departed because a record stays staged until after it
// is counted departed, and consumed is read on both sides because a
// record consumed in between can stage a departure (an active message's
// reply) the other reads missed. idle reports that nothing was staged
// and nothing consumed during the observation; with departed equal to
// consumed as well, nothing was in flight at the departed read.
func Observe(clocks []*timemodel.Clocks, staged func() bool) (departed, consumed int64, idle bool) {
	a0 := timemodel.Sum(clocks, (*timemodel.Clocks).Consumed)
	idle = staged == nil || !staged()
	departed = timemodel.Sum(clocks, (*timemodel.Clocks).Departed)
	consumed = timemodel.Sum(clocks, (*timemodel.Clocks).Consumed)
	return departed, consumed, idle && consumed == a0
}

// Quiet implements Fabric for a fabric whose ledgers are all in this
// process: one observation with nothing staged finds every record
// counted departed consumed.
func (e *Endpoint) Quiet() bool {
	departed, consumed, idle := Observe(e.clocks, nil)
	return idle && departed == consumed
}

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
