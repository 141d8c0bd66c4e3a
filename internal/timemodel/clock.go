package timemodel

import "sync/atomic"

// Clocks accumulates per-node virtual time on independent resources.
// All fields are in nanoseconds scaled by ClockScale to allow atomic
// integer accumulation of fractional costs.
//
// The functional simulation runs concurrently, so every accumulator is
// atomic. Reads during a quiescent phase boundary are exact.
type Clocks struct {
	gpu       atomic.Int64 // GPU busy time
	agg       atomic.Int64 // aggregator CPU busy time
	net       atomic.Int64 // network thread CPU busy time
	wireSend  atomic.Int64 // NIC send-side wire occupancy
	wireRecv  atomic.Int64 // NIC receive-side wire occupancy
	host      atomic.Int64 // host-side serial time (launches, chunk waits)
	aggIdle   atomic.Int64 // aggregator poll (idle) time, for §8.1
	aggSlots  atomic.Int64
	aggMsgs   atomic.Int64
	netMsgs   atomic.Int64
	pktsSent  atomic.Int64
	bytesSent atomic.Int64

	// netBanks, when non-nil, splits the net accumulator by resolver
	// bank: banked resolution runs the bank goroutines concurrently, so
	// the phase bound is the busiest bank, not the serial sum. Nil (the
	// single-bank default) leaves every composition bit-identical to
	// the serial network thread.
	netBanks []atomic.Int64
}

// ClockScale converts nanoseconds to internal fixed-point ticks.
const ClockScale = 16

func toTicks(ns float64) int64 { return int64(ns * ClockScale) }

// AddGPU charges ns to the GPU clock.
func (c *Clocks) AddGPU(ns float64) { c.gpu.Add(toTicks(ns)) }

// AddAgg charges ns of useful work to the aggregator clock.
func (c *Clocks) AddAgg(ns float64) { c.agg.Add(toTicks(ns)) }

// AggBusy returns the aggregator's busy time so far, in nanoseconds.
func (c *Clocks) AggBusy() float64 { return float64(c.agg.Load()) / ClockScale }

// AddAggIdle charges ns of polling to the aggregator idle clock. The
// runtime charges it once per phase, as the part of the phase the
// aggregator cores were not busy (core.Cluster.RecordPhase).
func (c *Clocks) AddAggIdle(ns float64) { c.aggIdle.Add(toTicks(ns)) }

// ConfigureNetBanks enables per-bank net accounting with the given
// bank count. It must be called before any concurrent clock use;
// banks <= 1 leaves the serial single-accumulator behaviour.
func (c *Clocks) ConfigureNetBanks(banks int) {
	if banks > 1 {
		c.netBanks = make([]atomic.Int64, banks)
	}
}

// AddNetBank charges ns of resolver work to the network thread clock
// and, with ConfigureNetBanks, to one bank of it. Without, it is the
// serial network thread's charge — one accumulator, one-call tick
// rounding — so a single-bank run stays bit-identical to it.
func (c *Clocks) AddNetBank(bank int, ns float64) {
	t := toTicks(ns)
	c.net.Add(t)
	if c.netBanks != nil {
		c.netBanks[bank].Add(t)
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

// CountNetMsgs records messages resolved by the network thread.
func (c *Clocks) CountNetMsgs(n int) { c.netMsgs.Add(int64(n)) }

// CountPacket records one packet put on the wire.
func (c *Clocks) CountPacket(bytes int) {
	c.pktsSent.Add(1)
	c.bytesSent.Add(int64(bytes))
}

// Snapshot is a point-in-time copy of a node's clocks, in nanoseconds.
type Snapshot struct {
	GPU, Agg, AggIdle, Net, WireSend, WireRecv, Host float64
	AggSlots, AggMsgs, NetMsgs, PktsSent, BytesSent  int64
	// NetBanks is the per-bank split of Net, nil unless the node runs
	// banked resolution (ConfigureNetBanks).
	NetBanks []float64
}

// Snapshot returns the current clock values. It is only exact when the
// node is quiescent.
func (c *Clocks) Snapshot() Snapshot {
	s := Snapshot{
		GPU:       float64(c.gpu.Load()) / ClockScale,
		Agg:       float64(c.agg.Load()) / ClockScale,
		AggIdle:   float64(c.aggIdle.Load()) / ClockScale,
		Net:       float64(c.net.Load()) / ClockScale,
		WireSend:  float64(c.wireSend.Load()) / ClockScale,
		WireRecv:  float64(c.wireRecv.Load()) / ClockScale,
		Host:      float64(c.host.Load()) / ClockScale,
		AggSlots:  c.aggSlots.Load(),
		AggMsgs:   c.aggMsgs.Load(),
		NetMsgs:   c.netMsgs.Load(),
		PktsSent:  c.pktsSent.Load(),
		BytesSent: c.bytesSent.Load(),
	}
	c.snapshotBanks(&s)
	return s
}

// snapshotBanks fills s.NetBanks when banked accounting is on.
func (c *Clocks) snapshotBanks(s *Snapshot) {
	if c.netBanks == nil {
		return
	}
	s.NetBanks = make([]float64, len(c.netBanks))
	for i := range c.netBanks {
		s.NetBanks[i] = float64(c.netBanks[i].Load()) / ClockScale
	}
}

// Sub returns s - prev, field by field. NetBanks subtracts
// element-wise (prev may be shorter, e.g. the zero Snapshot before the
// first phase).
func (s Snapshot) Sub(prev Snapshot) Snapshot {
	var banks []float64
	if s.NetBanks != nil {
		banks = make([]float64, len(s.NetBanks))
		for i, v := range s.NetBanks {
			if i < len(prev.NetBanks) {
				v -= prev.NetBanks[i]
			}
			banks[i] = v
		}
	}
	return Snapshot{
		NetBanks:  banks,
		GPU:       s.GPU - prev.GPU,
		Agg:       s.Agg - prev.Agg,
		AggIdle:   s.AggIdle - prev.AggIdle,
		Net:       s.Net - prev.Net,
		WireSend:  s.WireSend - prev.WireSend,
		WireRecv:  s.WireRecv - prev.WireRecv,
		Host:      s.Host - prev.Host,
		AggSlots:  s.AggSlots - prev.AggSlots,
		AggMsgs:   s.AggMsgs - prev.AggMsgs,
		NetMsgs:   s.NetMsgs - prev.NetMsgs,
		PktsSent:  s.PktsSent - prev.PktsSent,
		BytesSent: s.BytesSent - prev.BytesSent,
	}
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

// PhaseRecord describes one superstep of a run: the per-node phase times
// and the cluster-level phase time (max over nodes plus barrier cost).
type PhaseRecord struct {
	Name    string
	NodeNs  []float64
	PhaseNs float64
}

// Total sums phase times.
func Total(phases []PhaseRecord) float64 {
	var t float64
	for _, p := range phases {
		t += p.PhaseNs
	}
	return t
}
