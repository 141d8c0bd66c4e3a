package rt

// StatsVersion is the version of the Stats snapshot schema. Consumers
// that persist or diff snapshots should check it; it bumps when a
// field changes meaning, never for additions.
const StatsVersion = 2

// Stats is a versioned snapshot of a system's communication behaviour,
// organized by subsystem: the producer/consumer queue, the aggregator,
// the transport, and the fault injector.
//
// Cumulative totals and the per-step deltas are drawn from the same
// counters at the same phase boundaries, so a StepStats field of
// Earlier plus its sum over Steps is the cumulative total for runs
// whose traffic happens inside steps (all of them: every message is
// initiated by a kernel or an AM handler running within a Step).
type Stats struct {
	// Version is StatsVersion at snapshot time.
	Version int
	// Model is the networking model ("gravel", "coprocessor", ...).
	Model string
	// Nodes is the cluster size.
	Nodes int
	// VirtualNs is the total virtual time across all steps.
	VirtualNs float64

	Queue     QueueStats
	Agg       AggStats
	Resolver  ResolverStats
	Transport TransportStats
	Faults    FaultStats
	PGAS      PGASStats

	// Steps holds the last steps' delta records (a fixed window), in
	// launch order; Earlier sums every step before them, Index their
	// count. Phases sums all steps by name, in first-seen order.
	Steps   []StepStats
	Earlier StepStats
	Phases  []PhaseStats
}

// PhaseStats sums the steps recorded under one name.
type PhaseStats struct {
	Name             string
	Steps            int
	VirtualNs, MaxNs float64 // their total and the longest one's
}

// QueueStats describes the fine-grain access stream entering the
// producer/consumer queue.
type QueueStats struct {
	// LocalOps and RemoteOps count fine-grain data accesses by
	// destination locality (Table 5 remote-access frequency).
	LocalOps, RemoteOps int64
	// SlotsDrained counts consumed queue slots; MsgsDrained the
	// messages they carried.
	SlotsDrained, MsgsDrained int64
}

// RemoteFrac returns the fraction of accesses that were remote.
func (q QueueStats) RemoteFrac() float64 {
	t := q.LocalOps + q.RemoteOps
	if t == 0 {
		return 0
	}
	return float64(q.RemoteOps) / float64(t)
}

// AggStats describes the aggregator: the CPU threads repacking queue
// slots into per-node queues.
type AggStats struct {
	// Strategy names the send-path aggregation strategy in effect:
	// "ticket" (the paper's fixed-slot ticket-queue builders) or
	// "archive" (grape-style per-destination growable archives).
	Strategy string
	// BusyNs and IdleNs split the aggregator cores' virtual time into
	// useful work and polling (§8.1), summed across nodes.
	BusyNs, IdleNs float64
	// BusyFrac is the paper's §8.1 single-core metric: busy time over
	// the run's virtual time times the nodes, one aggregator core each.
	BusyFrac float64
	// FlushesFull counts per-node queues sent because they filled;
	// FlushesTimeout counts flushes forced by the end-of-step timeout
	// flush (§3.4: full queues go immediately, stragglers on timeout).
	FlushesFull, FlushesTimeout int64
}

// ResolverStats describes the receive side: the per-node resolvers
// that apply received messages as local memory operations. With one
// shard this is the paper's serial network thread; with more, each
// node's stream is split by destination address into Shards concurrent
// banks, and node-local packets bypass the inbox entirely.
type ResolverStats struct {
	// Shards is the per-node resolver bank count (1 = the paper's
	// serial network thread).
	Shards int
	// Packets and Msgs count packets (sub-packets, when sharded) and
	// messages applied by resolver banks; AMs the active messages among
	// them.
	Packets, Msgs, AMs int64
	// BypassPackets and BypassMsgs count node-local packets resolved
	// synchronously on the sending goroutine (the from == to fast
	// path), never entering an inbox.
	BypassPackets, BypassMsgs int64
	// PerBank breaks the resolver totals down by bank, summed across
	// nodes; len(PerBank) == Shards. Bypass work is not per-bank (one
	// packet may span banks).
	PerBank []BankCount
}

// BankCount is one resolver bank's applied totals.
type BankCount struct {
	Packets, Msgs, AMs int64
}

// PGASStats counts the symmetric-heap verb traffic: signalled puts and
// device-side waits. Both are zero for apps using only put/inc/AM.
type PGASStats struct {
	// Signals counts PUT_SIGNAL messages resolved, summing the resolver
	// banks and the node-local bypass path.
	Signals int64
	// Waits counts WaitUntil verb calls issued by work-groups.
	Waits int64
}

// TransportStats describes the wire.
type TransportStats struct {
	// WirePackets and WireBytes count aggregated per-node queues that
	// crossed the wire; AvgPacketBytes is the Table 5 "average message
	// size".
	WirePackets, WireBytes int64
	AvgPacketBytes         float64
	// SelfPackets counts node-local packets (atomics routed through
	// the local network thread, never reaching the wire).
	SelfPackets int64
	// PerDest, indexed by destination node, breaks the wire totals
	// down by destination. In a multi-process cluster each process
	// reports the traffic its hosted node originated.
	PerDest []DestCount
	// Reconnects counts transport connections re-established after a
	// drop; Retries counts failed dial attempts.
	Reconnects, Retries int64
	// Malformed counts received frames dropped as invalid;
	// CorruptFrames counts frames whose payload failed the CRC and
	// were recovered by retransmission.
	Malformed, CorruptFrames int64
}

// FaultStats summarizes injected faults (all zero without an injector).
type FaultStats struct {
	// Enabled reports whether a fault injector was active.
	Enabled bool
	// Seed names the injected schedule for replay.
	Seed uint64
	// Per-kind injected fault counts (see internal/transport/fault).
	Drop, Dup, Reorder, Corrupt, Delay, Stall, Sever, Blocked int64
}

// Total returns the total number of injected faults.
func (f FaultStats) Total() int64 {
	return f.Drop + f.Dup + f.Reorder + f.Corrupt + f.Delay + f.Stall + f.Sever + f.Blocked
}

// StepStats is the per-step delta of the cumulative counters: what one
// recorded phase contributed. Fields mirror their cumulative
// counterparts in Stats.
type StepStats struct {
	// Index is the step's position in launch order; Name its label.
	Index int
	Name  string
	// VirtualNs is the phase's cluster virtual time (max over nodes
	// plus barrier).
	VirtualNs float64
	// WallNs is the measured wall-clock duration of the step in this
	// process, 0 when not measured.
	WallNs int64

	LocalOps, RemoteOps       int64
	SlotsDrained, MsgsDrained int64
	WirePackets, WireBytes    int64
	SelfPackets               int64
	AggBusyNs, AggIdleNs      float64

	// ResolvedPackets/Msgs/AMs are the resolver-bank deltas this step;
	// BypassPackets/Msgs the node-local fast-path deltas. They mirror
	// the cumulative ResolverStats fields.
	ResolvedPackets, ResolvedMsgs, ResolvedAMs int64
	BypassPackets, BypassMsgs                  int64

	// Signals and Waits mirror the cumulative PGASStats fields.
	Signals, Waits int64
}
