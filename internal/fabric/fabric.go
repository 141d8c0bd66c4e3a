// Package fabric defines the cluster interconnect abstraction: the
// Fabric interface every transport implements, the Packet unit of
// delivery, shared wire Metrics, and a registry that maps transport
// names ("chan", "loopback", "tcp") to factories.
//
// The default "chan" transport (this package) simulates the paper's
// interconnect (Table 3: 56 Gb/s InfiniBand, driven via MPI) with
// in-process channels and virtual LogGP-style timing. Package
// internal/transport contributes "loopback" (in-process, real framing)
// and "tcp" (real sockets, multi-process clusters).
package fabric

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gravel/internal/obs"
	"gravel/internal/park"
	"gravel/internal/timemodel"
	"gravel/internal/transport/fault"
)

// Packet is one per-node queue in flight: wire.MsgWireBytes records
// for the receiving node.
//
// Buffer ownership travels with the packet: Send transfers the buffer
// to the fabric, the receiver borrows it between Inbox and Done, and
// Done recycles it into the wire package's packet pool. After Done (or
// after Send, on the sending side) the buffer must not be touched.
type Packet struct {
	From, To int
	Buf      []byte
	Msgs     int
	// Bank is the resolver bank this packet resolves on (always 0 on an
	// unbanked fabric).
	Bank int
}

// Fabric is the interconnect interface the runtime depends on. A fabric
// connects n nodes; Send transmits one per-node queue, blocking when
// the receiver falls behind (finite in-flight queue credit, §6). Each
// hosted node runs one resolver per bank, ranging over BankInbox and
// calling Done after fully applying a packet; Quiet reports
// cluster-wide quiescence — no packets staged, in flight, or being
// applied — which the runtime's Quiesce relies on. Every fabric embeds
// one *Endpoint, which is its receive side (Hosts, Banks, BankInbox,
// SetLocalApply, Done, Progress) and answers Quiet from the nodes'
// ledgers, so a Fabric wrapping another by embedding passes all of it
// through.
type Fabric interface {
	// Nodes returns the cluster size.
	Nodes() int
	// Hosts reports whether this process runs node's threads. In-process
	// fabrics host every node; a multi-process transport hosts one.
	Hosts(node int) bool
	// Send transmits one per-node queue from node `from` to node `to`,
	// charging wire time to the sender. It blocks on backpressure.
	// Ownership of buf transfers to the fabric (see Packet).
	Send(from, to int, buf []byte, msgs int)
	// Banks returns the per-node resolver bank count (>= 1).
	Banks() int
	// BankInbox returns the receive channel of one bank of a node (nil
	// for a node another process hosts).
	BankInbox(node, bank int) <-chan Packet
	// SetLocalApply registers the node-local bypass, before the first
	// Send: a from == to packet is handed straight back to the runtime
	// instead of round-tripping through an inbox. The hook applies it
	// synchronously on the calling goroutine and must not retain the
	// buffer; the fabric recycles it when the hook returns and never
	// counts the packet in flight. The self-packet count and the
	// time-model charges are unchanged, so modeled figures do not drift.
	SetLocalApply(func(Packet))
	// Done must be called after fully applying a packet: it retires
	// the packet's records in the receiver's ledger, which quiescence
	// detection depends on, and recycles the packet's buffer.
	Done(Packet)
	// Quiet reports whether no packets are staged, in flight, or being
	// applied anywhere in the cluster: every record counted departed
	// has been consumed.
	Quiet() bool
	// Progress returns the event a host thread parks on while it waits
	// for Quiet. The fabric wakes it after every change that can turn
	// Quiet true; what feeds the fabric (an aggregator going idle) wakes
	// it too, so one wait covers a node's whole send side.
	Progress() *park.Event
	// Close tears the fabric down: all inboxes are closed after any
	// drain/close handshake completes. Network threads drain and exit.
	Close()
	// Metrics returns the fabric's wire counters.
	NetMetrics() *Metrics
}

// Distributed is what only a fabric spanning OS processes has; the
// runtime probes for it once, at construction.
type Distributed interface {
	// StepBarrier is the step's quiescence and barrier in one call: it
	// returns once every process has arrived at a globally quiescent
	// instant, and panics the fabric's fatal error like Quiet.
	StepBarrier()
	// Err returns the fabric's fatal error (a peer or the coordinator
	// declared down), nil while healthy.
	Err() error
	// SetStaged registers the runtime's staged read, before the first
	// StepBarrier: the fabric passes it to Observe on every ballot, from
	// host threads only (it may flush, which can block on backpressure).
	// It reports whether host-side messages the departed count cannot
	// see yet remain, flushing them toward the wire
	// (core.Cluster.flushStaged has the cascade this keeps alive).
	SetStaged(func() bool)
	// FaultInjector returns the fault injector, nil when fault
	// injection is off.
	FaultInjector() *fault.Injector
}

// Metrics holds what only a transport can count: the per-destination
// split of the wire traffic and the connection events. A packet itself
// is counted once, in the sending node's ledger (timemodel.Clocks).
type Metrics struct {
	// PerDest counts wire packets and bytes by destination node.
	PerDest []WireCount
	// Reconnects counts connections re-established after a drop;
	// Retries counts failed dial attempts. Both stay 0 for in-process
	// transports.
	Reconnects, Retries atomic.Int64
	// Malformed counts received frames or payloads that failed
	// validation and were dropped instead of applied.
	Malformed atomic.Int64
	// CorruptFrames counts received frames whose header parsed but
	// whose payload failed the CRC — in-flight corruption. Each one
	// forces a retransmit (the receiver poisons the stream after
	// re-acknowledging its resume point), so corruption costs latency,
	// never data.
	CorruptFrames atomic.Int64
}

// WireCount is the wire traffic bound for one destination.
type WireCount struct{ Packets, Bytes atomic.Int64 }

// NewMetrics creates zeroed metrics for an n-node fabric.
func NewMetrics(n int) *Metrics { return &Metrics{PerDest: make([]WireCount, n)} }

// Metrics returns m, so embedding *Metrics satisfies the Fabric
// interface's accessor.
func (m *Metrics) NetMetrics() *Metrics { return m }

// ObserveWire counts one packet put on the wire from node from, whose
// ledger is c, to node to: the departure site's one call.
func (m *Metrics) ObserveWire(c *timemodel.Clocks, from, to, bytes int) {
	c.CountPacket(bytes)
	m.PerDest[to].Packets.Add(1)
	m.PerDest[to].Bytes.Add(int64(bytes))
	if obs.Enabled() {
		obs.Emit(obs.KSend, from, int64(to), int64(bytes), "")
	}
}

// Options configures a transport built through the registry. The
// in-process transports ("chan", "loopback") ignore every field except
// ResolverBanks.
type Options struct {
	// ResolverBanks splits each node's receive-side resolution into
	// this many per-bank inboxes (power of two, max MaxResolverBanks;
	// 0 or 1 = the paper's single serial network thread).
	ResolverBanks int

	// Self is the node this process hosts (multi-process transports).
	Self int
	// Listen is the address to accept peer connections on; an explicit
	// port 0 picks a free port, published through the coordinator.
	Listen string
	// Coord is the rendezvous coordinator address (join, heartbeats,
	// checkpoints, rescale). Peer addresses are exchanged at
	// join; the TCP transport rejects multi-node clusters without it.
	Coord string

	// Faults, when non-nil, enables deterministic fault injection on
	// socket transports (see internal/transport/fault). Nil is the
	// production configuration: a zero-allocation pass-through.
	Faults *fault.Config

	// SuspectTimeout is how long a peer (or the coordinator's view of a
	// worker) may be silent while traffic is pending before it is
	// declared down with a typed PeerDownError. Zero means the default
	// (30s); negative disables failure detection.
	SuspectTimeout time.Duration
	// HeartbeatInterval is the peer-ping and coordinator-heartbeat
	// period. Zero means SuspectTimeout/4.
	HeartbeatInterval time.Duration

	// CoordDialTimeout bounds the initial coordinator dial (workers
	// routinely start before the coordinator listens; retries back off
	// from 10ms to 1s). Zero means 30s.
	CoordDialTimeout time.Duration
	// CoordRPCTimeout bounds every coordinator request/response
	// exchange; an expired deadline yields a typed CoordDownError.
	// Zero means 15s; negative disables the deadline.
	CoordRPCTimeout time.Duration

	// Generation is the membership generation this process belongs to.
	// It is stamped on every coordinator RPC, peer handshake and frame;
	// a receiver on another generation rejects the message with a typed
	// StaleGenerationError instead of misdelivering it. Zero means the
	// coordinator's generation at the time this process joins.
	Generation uint32
}

// Factory builds a fabric over the given per-node clocks.
type Factory func(p *timemodel.Params, clocks []*timemodel.Clocks, opt Options) (Fabric, error)

var (
	regMu    sync.Mutex
	registry = map[string]Factory{}
)

// Register makes a transport available by name. It panics on duplicate
// registration.
func Register(name string, f Factory) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("fabric: duplicate transport %q", name))
	}
	registry[name] = f
}

// NewByName builds a registered transport.
func NewByName(name string, p *timemodel.Params, clocks []*timemodel.Clocks, opt Options) (Fabric, error) {
	regMu.Lock()
	f, ok := registry[name]
	regMu.Unlock()
	if !ok {
		return nil, fmt.Errorf("fabric: unknown transport %q (have %v)", name, Names())
	}
	return f(p, clocks, opt)
}

// Names lists the registered transports in sorted order.
func Names() []string {
	regMu.Lock()
	defer regMu.Unlock()
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func init() {
	Register("chan", func(p *timemodel.Params, clocks []*timemodel.Clocks, opt Options) (Fabric, error) {
		return NewBanked(p, clocks, opt.ResolverBanks), nil
	})
}
