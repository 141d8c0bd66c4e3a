package timemodel

import "sync/atomic"

// Clocks is a node's ledger: its virtual time on independent resources
// and every count a step is reported by, each kept once and bumped at
// the one place the event happens. Times are in nanoseconds scaled by
// ClockScale to allow atomic integer accumulation of fractional costs.
//
// The functional simulation runs concurrently, so every accumulator is
// atomic. Reads during a quiescent phase boundary are exact.
type Clocks struct {
	gpu      atomic.Int64 // GPU busy time
	agg      atomic.Int64 // aggregator CPU busy time
	net      atomic.Int64 // network thread CPU busy time
	wireSend atomic.Int64 // NIC send-side wire occupancy
	wireRecv atomic.Int64 // NIC receive-side wire occupancy
	host     atomic.Int64 // host-side serial time (launches, chunk waits)
	aggIdle  atomic.Int64 // aggregator poll (idle) time, for §8.1

	aggSlots, aggMsgs       atomic.Int64 // drained queue slots and their messages
	localOps, remoteOps     atomic.Int64 // fine-grain accesses by locality (Table 5)
	waits                   atomic.Int64 // WaitUntil verb calls
	pktsSent, bytesSent     atomic.Int64 // packets and bytes put on the wire
	selfPkts                atomic.Int64 // node-local packets, which never reach it
	flushFull, flushTimeout atomic.Int64 // aggregator flushes by reason (§3.4)
	bypass                  resolved     // node-local packets applied by the sender

	// departed and consumed are the quiescence ledger, in records: what
	// the fabric took from this node, and what it retired at this node
	// (applied, or dropped). The cluster is quiet when the two sums
	// balance and nothing is staged (DESIGN.md §4.14).
	departed, consumed atomic.Int64

	// banks is the receive side, one entry per resolver bank
	// (ConfigureNetBanks). Under banked resolution the bank goroutines
	// run concurrently, so the phase bound is the busiest bank and each
	// keeps its share of the net time too; with one bank, net alone is
	// the serial network thread's clock and every composition stays
	// bit-identical to it.
	banks []bank
}

// resolved is the ledger's form of Resolved.
type resolved struct{ pkts, msgs, ams, sigs atomic.Int64 }

func (r *resolved) add(msgs, ams, sigs int) {
	r.pkts.Add(1)
	r.msgs.Add(int64(msgs))
	r.ams.Add(int64(ams))
	r.sigs.Add(int64(sigs))
}

func (r *resolved) load() Resolved {
	return Resolved{Pkts: r.pkts.Load(), Msgs: r.msgs.Load(), AMs: r.ams.Load(), Sigs: r.sigs.Load()}
}

type bank struct {
	net atomic.Int64
	resolved
}

// ClockScale converts nanoseconds to internal fixed-point ticks.
const ClockScale = 16

func toTicks(ns float64) int64 { return int64(ns * ClockScale) }

func fromTicks(t int64) float64 { return float64(t) / ClockScale }

// AddGPU charges ns to the GPU clock.
func (c *Clocks) AddGPU(ns float64) { c.gpu.Add(toTicks(ns)) }

// AddAgg charges ns of useful work to the aggregator clock.
func (c *Clocks) AddAgg(ns float64) { c.agg.Add(toTicks(ns)) }

// AddAggIdle charges ns of polling to the aggregator idle clock and
// returns the clock's new reading. The runtime charges it once per
// phase, as the part of the phase the aggregator cores were not busy
// (core.Cluster's phase record).
func (c *Clocks) AddAggIdle(ns float64) float64 { return fromTicks(c.aggIdle.Add(toTicks(ns))) }

// ConfigureNetBanks sizes the receive side's ledger to the node's
// resolver bank count (banks <= 1: the serial network thread). It must
// be called before any concurrent clock use, and before CountResolved.
func (c *Clocks) ConfigureNetBanks(banks int) { c.banks = make([]bank, max(1, banks)) }

// AddNetBank charges ns of resolver work to the network thread clock
// and, under banked resolution, to one bank of it. With one bank it is
// the serial network thread's charge — one accumulator, one-call tick
// rounding — so a single-bank run stays bit-identical to it.
func (c *Clocks) AddNetBank(bank int, ns float64) {
	t := toTicks(ns)
	c.net.Add(t)
	if len(c.banks) > 1 {
		c.banks[bank].net.Add(t)
	}
}

// AddWireSend charges ns of send-side wire occupancy.
func (c *Clocks) AddWireSend(ns float64) { c.wireSend.Add(toTicks(ns)) }

// AddWireRecv charges ns of receive-side wire occupancy.
func (c *Clocks) AddWireRecv(ns float64) { c.wireRecv.Add(toTicks(ns)) }

// AddHost charges ns of non-overlappable host time.
func (c *Clocks) AddHost(ns float64) { c.host.Add(toTicks(ns)) }

// CountAggSlot records one consumed producer/consumer queue slot holding
// msgs messages.
func (c *Clocks) CountAggSlot(msgs int) {
	c.aggSlots.Add(1)
	c.aggMsgs.Add(int64(msgs))
}

// CountOps records fine-grain data accesses by destination locality.
func (c *Clocks) CountOps(local, remote int) {
	c.localOps.Add(int64(local))
	c.remoteOps.Add(int64(remote))
}

// CountWait records one WaitUntil verb call.
func (c *Clocks) CountWait() { c.waits.Add(1) }

// CountPacket records one packet put on the wire.
func (c *Clocks) CountPacket(bytes int) {
	c.pktsSent.Add(1)
	c.bytesSent.Add(int64(bytes))
}

// CountSelfPacket records one node-local packet: atomics routed through
// the local network thread, which never touch the wire (§6).
func (c *Clocks) CountSelfPacket() { c.selfPkts.Add(1) }

// CountFlush records one aggregator flush: the per-node queue filled,
// or the end-of-step timeout flush forced it out.
func (c *Clocks) CountFlush(timeout bool) {
	if timeout {
		c.flushTimeout.Add(1)
	} else {
		c.flushFull.Add(1)
	}
}

// CountResolved records one packet applied by resolver bank b.
func (c *Clocks) CountResolved(b, msgs, ams, sigs int) { c.banks[b].add(msgs, ams, sigs) }

// CountBypass records one node-local packet applied on the sending
// goroutine (the fabric's bypass), which no bank's inbox saw.
func (c *Clocks) CountBypass(msgs, ams, sigs int) { c.bypass.add(msgs, ams, sigs) }

// Bank returns what resolver bank b has applied so far.
func (c *Clocks) Bank(b int) Resolved { return c.banks[b].load() }

// CountDeparted records records handed to the fabric by this node: the
// fabric's send side calls it once per packet, node-local ones included.
func (c *Clocks) CountDeparted(records int) { c.departed.Add(int64(records)) }

// CountConsumed records records the fabric retired at this node: applied
// and Done, applied by the bypass, or dropped on the way in.
func (c *Clocks) CountConsumed(records int) { c.consumed.Add(int64(records)) }

// Departed returns how many records the node has handed to the fabric.
func (c *Clocks) Departed() int64 { return c.departed.Load() }

// Consumed returns how many records the fabric has retired at the node.
func (c *Clocks) Consumed() int64 { return c.consumed.Load() }

// Sum adds one count up over the nodes' ledgers, such as
// (*Clocks).Departed: one side of the quiescence equation.
func Sum(clocks []*Clocks, count func(*Clocks) int64) int64 {
	var n int64
	for _, c := range clocks {
		n += count(c)
	}
	return n
}

// Resolved is applied work: packets (sub-packets, when banked), their
// messages, and the active messages and signalled puts among them.
type Resolved struct{ Pkts, Msgs, AMs, Sigs int64 }

func (r Resolved) sub(p Resolved) Resolved {
	return Resolved{r.Pkts - p.Pkts, r.Msgs - p.Msgs, r.AMs - p.AMs, r.Sigs - p.Sigs}
}

// Snapshot is a point-in-time copy of a node's ledger, times in
// nanoseconds.
type Snapshot struct {
	GPU, Agg, AggIdle, Net, WireSend, WireRecv, Host float64
	// NetBanks is the per-bank split of Net, nil unless the node runs
	// banked resolution (ConfigureNetBanks with more than one bank).
	NetBanks []float64

	AggSlots, AggMsgs           int64
	LocalOps, RemoteOps, Waits  int64
	PktsSent, BytesSent         int64
	SelfPkts                    int64
	FlushesFull, FlushesTimeout int64
	// Resolved sums the resolver banks' work, Bypass is the node-local
	// bypass's, and NetMsgs is every message the two applied.
	Resolved, Bypass Resolved
	NetMsgs          int64
}

// Snapshot returns the current ledger. It is only exact when the node
// is quiescent.
func (c *Clocks) Snapshot() Snapshot {
	var s Snapshot
	c.Read(&s)
	return s
}

// Read is Snapshot into s, reusing the array of s.NetBanks: a reader
// that keeps one Snapshot per node reads the ledger without allocating.
func (c *Clocks) Read(s *Snapshot) {
	banks := s.NetBanks[:0]
	*s = Snapshot{
		GPU:            fromTicks(c.gpu.Load()),
		Agg:            fromTicks(c.agg.Load()),
		AggIdle:        fromTicks(c.aggIdle.Load()),
		Net:            fromTicks(c.net.Load()),
		WireSend:       fromTicks(c.wireSend.Load()),
		WireRecv:       fromTicks(c.wireRecv.Load()),
		Host:           fromTicks(c.host.Load()),
		AggSlots:       c.aggSlots.Load(),
		AggMsgs:        c.aggMsgs.Load(),
		LocalOps:       c.localOps.Load(),
		RemoteOps:      c.remoteOps.Load(),
		Waits:          c.waits.Load(),
		PktsSent:       c.pktsSent.Load(),
		BytesSent:      c.bytesSent.Load(),
		SelfPkts:       c.selfPkts.Load(),
		FlushesFull:    c.flushFull.Load(),
		FlushesTimeout: c.flushTimeout.Load(),
		Bypass:         c.bypass.load(),
	}
	if len(c.banks) > 1 {
		s.NetBanks = append(banks, make([]float64, len(c.banks))...)
	}
	for i := range c.banks {
		b := &c.banks[i]
		r := b.load()
		s.Resolved.Pkts += r.Pkts
		s.Resolved.Msgs += r.Msgs
		s.Resolved.AMs += r.AMs
		s.Resolved.Sigs += r.Sigs
		if s.NetBanks != nil {
			s.NetBanks[i] = fromTicks(b.net.Load())
		}
	}
	s.NetMsgs = s.Resolved.Msgs + s.Bypass.Msgs
}

// Sub returns s - prev, field by field. NetBanks subtracts
// element-wise (prev may be shorter, e.g. the zero Snapshot before the
// first phase).
func (s Snapshot) Sub(prev Snapshot) Snapshot { return s.SubInto(prev, nil) }

// SubInto is Sub with the NetBanks difference written into the array
// of banks (grown if short): a caller that keeps the scratch subtracts
// without allocating.
func (s Snapshot) SubInto(prev Snapshot, banks []float64) Snapshot {
	if s.NetBanks != nil {
		banks = append(banks[:0], s.NetBanks...)
		for i := range min(len(banks), len(prev.NetBanks)) {
			banks[i] -= prev.NetBanks[i]
		}
		s.NetBanks = banks
	}
	s.GPU -= prev.GPU
	s.Agg -= prev.Agg
	s.AggIdle -= prev.AggIdle
	s.Net -= prev.Net
	s.WireSend -= prev.WireSend
	s.WireRecv -= prev.WireRecv
	s.Host -= prev.Host
	s.AggSlots -= prev.AggSlots
	s.AggMsgs -= prev.AggMsgs
	s.LocalOps -= prev.LocalOps
	s.RemoteOps -= prev.RemoteOps
	s.Waits -= prev.Waits
	s.PktsSent -= prev.PktsSent
	s.BytesSent -= prev.BytesSent
	s.SelfPkts -= prev.SelfPkts
	s.FlushesFull -= prev.FlushesFull
	s.FlushesTimeout -= prev.FlushesTimeout
	s.Resolved = s.Resolved.sub(prev.Resolved)
	s.Bypass = s.Bypass.sub(prev.Bypass)
	s.NetMsgs -= prev.NetMsgs
	return s
}

// NetBound is the network-thread contribution to a phase: the serial
// net time, or — under banked resolution, where the bank goroutines
// run concurrently — the busiest bank.
func (s Snapshot) NetBound() float64 {
	if s.NetBanks == nil {
		return s.Net
	}
	m := 0.0
	for _, v := range s.NetBanks {
		if v > m {
			m = v
		}
	}
	return m
}

// Overlapped composes the phase time for networking models that overlap
// communication with computation (Gravel, message-per-lane, coalesced
// APIs): the phase is bounded by the busiest resource, plus any host
// serial time.
func (s Snapshot) Overlapped() float64 {
	m := s.GPU
	for _, v := range []float64{s.Agg, s.NetBound(), s.WireSend, s.WireRecv} {
		if v > m {
			m = v
		}
	}
	return m + s.Host
}

// Sequential composes the phase time for the bulk-synchronous coprocessor
// model: nothing overlaps between resources, but the resolver banks
// within the net resource still run concurrently with each other.
func (s Snapshot) Sequential() float64 {
	return s.GPU + s.Agg + s.NetBound() + s.WireSend + s.WireRecv + s.Host
}
