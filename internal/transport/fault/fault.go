// Package fault is a deterministic, seeded fault injector for the
// socket transports: net.Conn / net.Listener middleware that subjects
// every outbound frame to a configurable schedule of drops,
// duplications, delays, reorderings, byte corruption, connection
// stalls, severs, node blackouts, and asymmetric partitions.
//
// The paper assumes a reliable MPI-over-InfiniBand interconnect
// (§3.4, §6); this reproduction emulates that interconnect itself, so
// the transport's exactly-once and quiescence guarantees must be
// proven against hostile networks, not just a clean localhost. The
// injector makes hostility reproducible: every probabilistic decision
// is drawn from a named per-link rand.Source derived from Config.Seed,
// so a failing chaos run can be replayed from its seed — the per-link
// fault schedule is a pure function of (seed, link, frame index).
//
// A nil *Config (and the nil *Injector it yields) is the production
// configuration: every hook is a zero-allocation pass-through that
// returns its argument unchanged.
package fault

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"gravel/internal/obs"
)

// Config is a fault schedule. Probabilities are per frame written on a
// link (a directed sender→receiver pair); windows are relative to
// injector creation, which in a Gravel cluster is transport
// construction — effectively cluster start.
type Config struct {
	// Seed names the run. Identical seeds replay identical per-link
	// decision sequences.
	Seed uint64

	// Drop is the probability a frame is silently discarded. The
	// receiver sees a sequence gap on the next frame and poisons the
	// connection; the sender reconnects and retransmits.
	Drop float64
	// Dup is the probability a frame is written twice. The receiver's
	// dedup window re-acknowledges and discards the copy.
	Dup float64
	// Reorder is the probability a frame is held back and written
	// after its successor (a one-frame transposition).
	Reorder float64
	// Corrupt is the probability one payload byte is flipped. The
	// frame CRC must catch it: the receiver counts it in
	// Stats.Transport.CorruptFrames and forces a retransmit.
	Corrupt float64
	// Delay is the probability a frame's write sleeps for a uniform
	// duration in (0, DelayMax].
	Delay    float64
	DelayMax time.Duration
	// Stall is the probability the connection stops making progress
	// for StallFor before the frame is written (a frozen-but-open
	// peer; heartbeat/suspect detection territory when StallFor
	// exceeds the suspect timeout).
	Stall    float64
	StallFor time.Duration
	// Sever is the probability the connection is closed immediately
	// after the frame is written; SeverMax caps severs per link
	// (0 = unlimited).
	Sever    float64
	SeverMax int

	// Blackouts cut every link touching a node for a window: dials
	// fail, established connections in both directions are severed.
	// A blackout longer than the suspect timeout is an unrecoverable
	// fault by design.
	Blackouts []Blackout
	// Partitions cut one direction of one link for a window
	// (asymmetric: From can still hear To).
	Partitions []Partition
}

// Blackout takes a node off the network for a window.
type Blackout struct {
	Node     int
	Start    time.Duration
	Duration time.Duration
}

// Partition blocks the directed link From→To for a window.
type Partition struct {
	From, To int
	Start    time.Duration
	Duration time.Duration
}

// Enabled reports whether the config injects anything at all.
func (c *Config) Enabled() bool {
	if c == nil {
		return false
	}
	return c.Drop > 0 || c.Dup > 0 || c.Reorder > 0 || c.Corrupt > 0 ||
		c.Delay > 0 || c.Stall > 0 || c.Sever > 0 ||
		len(c.Blackouts) > 0 || len(c.Partitions) > 0
}

// Entry is one injected fault, for the diagnostic log.
type Entry struct {
	Elapsed  time.Duration // since injector creation
	From, To int           // link (From < 0: inbound, peer unknown yet)
	Kind     string        // "drop", "dup", "delay", ...
	Frame    uint64        // per-link frame index the decision applied to
}

func (e Entry) String() string {
	return fmt.Sprintf("%8.3fs %d->%d #%d %s",
		e.Elapsed.Seconds(), e.From, e.To, e.Frame, e.Kind)
}

// Counts summarizes injected faults by kind.
type Counts struct {
	Drop, Dup, Reorder, Corrupt, Delay, Stall, Sever, Blocked int64
}

func (c Counts) String() string {
	return fmt.Sprintf("drop=%d dup=%d reorder=%d corrupt=%d delay=%d stall=%d sever=%d blocked=%d",
		c.Drop, c.Dup, c.Reorder, c.Corrupt, c.Delay, c.Stall, c.Sever, c.Blocked)
}

// Total returns the total number of injected faults.
func (c Counts) Total() int64 {
	return c.Drop + c.Dup + c.Reorder + c.Corrupt + c.Delay + c.Stall + c.Sever + c.Blocked
}

const logCap = 512 // most recent entries kept for the diagnostic dump

// Injector applies a Config to a transport's connections. All methods
// are safe on a nil receiver (pass-through), so the disabled path costs
// nothing.
type Injector struct {
	cfg   Config
	epoch time.Time

	mu     sync.Mutex
	links  map[linkKey]*linkState
	log    []Entry
	logAt  int
	full   bool
	counts Counts
}

type linkKey struct{ from, to int }

// linkState is the per-directed-link decision state. Decisions are
// drawn under the injector mutex from a rand.Rand seeded by
// (Config.Seed, from, to), so each link's schedule is independent of
// every other link's traffic and of wall-clock timing.
type linkState struct {
	rng    *rand.Rand
	frames uint64 // frames decided on this link
	severs int    // severs injected so far
	held   []byte // reorder: frame held back, written after its successor
}

// New builds an injector for an n-node cluster. A nil or disabled
// config yields a nil injector, whose methods all pass through.
func New(cfg *Config) *Injector {
	if !cfg.Enabled() {
		return nil
	}
	return &Injector{
		cfg:   *cfg,
		epoch: time.Now(),
		links: make(map[linkKey]*linkState),
	}
}

// Enabled reports whether this injector injects anything (nil-safe;
// New returns nil for disabled configs).
func (in *Injector) Enabled() bool { return in != nil }

// Config returns the schedule (nil receiver: nil).
func (in *Injector) Config() *Config {
	if in == nil {
		return nil
	}
	c := in.cfg
	return &c
}

// link returns the decision state for a directed link, creating it
// deterministically on first use. in.mu must be held.
func (in *Injector) link(from, to int) *linkState {
	k := linkKey{from, to}
	ls := in.links[k]
	if ls == nil {
		// SplitMix64-style mix of (seed, from, to) so each link gets an
		// independent, reproducible stream.
		z := in.cfg.Seed + 0x9e3779b97f4a7c15*uint64(from+1) + 0xbf58476d1ce4e5b9*uint64(to+1)
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		ls = &linkState{rng: rand.New(rand.NewSource(int64(z)))}
		in.links[k] = ls
	}
	return ls
}

// record appends one fault to the bounded log and its counter. in.mu
// must be held.
func (in *Injector) record(from, to int, kind string, frame uint64) {
	if obs.Enabled() {
		obs.Emit(obs.KFault, from, int64(to), int64(frame), kind)
	}
	e := Entry{Elapsed: time.Since(in.epoch), From: from, To: to, Kind: kind, Frame: frame}
	if len(in.log) < logCap {
		in.log = append(in.log, e)
	} else {
		in.log[in.logAt] = e
		in.full = true
	}
	in.logAt = (in.logAt + 1) % logCap
	switch kind {
	case "drop":
		in.counts.Drop++
	case "dup":
		in.counts.Dup++
	case "reorder":
		in.counts.Reorder++
	case "corrupt":
		in.counts.Corrupt++
	case "delay":
		in.counts.Delay++
	case "stall":
		in.counts.Stall++
	case "sever":
		in.counts.Sever++
	default:
		in.counts.Blocked++
	}
}

// Log returns the most recent injected faults, oldest first.
func (in *Injector) Log() []Entry {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if !in.full {
		return append([]Entry(nil), in.log...)
	}
	out := make([]Entry, 0, logCap)
	out = append(out, in.log[in.logAt:]...)
	out = append(out, in.log[:in.logAt]...)
	return out
}

// Counters returns the per-kind fault totals.
func (in *Injector) Counters() Counts {
	if in == nil {
		return Counts{}
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.counts
}

// blackoutActive reports whether node is inside a blackout window at
// elapsed time el.
func (in *Injector) blackoutActive(node int, el time.Duration) bool {
	for _, b := range in.cfg.Blackouts {
		if b.Node == node && el >= b.Start && el < b.Start+b.Duration {
			return true
		}
	}
	return false
}

// partitionActive reports whether the directed link from→to is cut at
// elapsed time el.
func (in *Injector) partitionActive(from, to int, el time.Duration) bool {
	for _, p := range in.cfg.Partitions {
		if p.From == from && p.To == to && el >= p.Start && el < p.Start+p.Duration {
			return true
		}
	}
	return false
}

// LinkBlocked reports whether the directed link from→to is currently
// cut by a blackout or partition. The transports consult it before
// dialing, so a cut link fails fast into the reconnect backoff loop.
func (in *Injector) LinkBlocked(from, to int) bool {
	if in == nil {
		return false
	}
	el := time.Since(in.epoch)
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.blackoutActive(from, el) || in.blackoutActive(to, el) || in.partitionActive(from, to, el) {
		in.record(from, to, "blocked", 0)
		return true
	}
	return false
}

// errInjected is returned by faulted connection operations; the
// transport treats it like any other connection failure.
type injectedError struct{ kind string }

func (e *injectedError) Error() string { return "fault: injected " + e.kind }

// WrapConn wraps an outbound connection carrying frames from→to. Each
// Write must be one whole frame (the transports write frames with a
// single Write call), which is what makes frame-granular drop /
// duplicate / reorder / corrupt decisions possible at the conn layer.
func (in *Injector) WrapConn(c net.Conn, from, to int) net.Conn {
	if in == nil {
		return c
	}
	return &faultConn{Conn: c, in: in, from: from, to: to}
}

// WrapListener wraps a node's listener so inbound connections observe
// that node's blackout windows (refused while black, severed when a
// window opens mid-connection). Probabilistic frame faults stay on the
// outbound side, where the link identity is known before the first
// byte.
func (in *Injector) WrapListener(ln net.Listener, self int) net.Listener {
	if in == nil || (len(in.cfg.Blackouts) == 0 && len(in.cfg.Partitions) == 0) {
		return ln
	}
	return &faultListener{Listener: ln, in: in, self: self}
}

type faultListener struct {
	net.Listener
	in   *Injector
	self int
}

func (fl *faultListener) Accept() (net.Conn, error) {
	for {
		c, err := fl.Listener.Accept()
		if err != nil {
			return nil, err
		}
		el := time.Since(fl.in.epoch)
		fl.in.mu.Lock()
		black := fl.in.blackoutActive(fl.self, el)
		if black {
			fl.in.record(-1, fl.self, "blocked", 0)
		}
		fl.in.mu.Unlock()
		if black {
			c.Close()
			continue
		}
		return &blackoutConn{Conn: c, in: fl.in, node: fl.self}, nil
	}
}

// blackoutConn severs an established inbound connection when its
// node's blackout window opens.
type blackoutConn struct {
	net.Conn
	in   *Injector
	node int
}

func (bc *blackoutConn) check() error {
	el := time.Since(bc.in.epoch)
	bc.in.mu.Lock()
	black := bc.in.blackoutActive(bc.node, el)
	bc.in.mu.Unlock()
	if black {
		bc.Conn.Close()
		return &injectedError{kind: "blackout"}
	}
	return nil
}

func (bc *blackoutConn) Read(b []byte) (int, error) {
	if err := bc.check(); err != nil {
		return 0, err
	}
	return bc.Conn.Read(b)
}

func (bc *blackoutConn) Write(b []byte) (int, error) {
	if err := bc.check(); err != nil {
		return 0, err
	}
	return bc.Conn.Write(b)
}

// faultConn applies the probabilistic schedule to each outbound frame.
type faultConn struct {
	net.Conn
	in       *Injector
	from, to int
}

// decision is the outcome drawn for one frame.
type decision struct {
	drop, dup, corrupt, sever bool
	reorderHold               bool
	release                   []byte // previously held frame, written after this one
	delay                     time.Duration
	stall                     time.Duration
	corruptAt                 int // payload byte to flip
}

func (fc *faultConn) Write(b []byte) (int, error) {
	in := fc.in
	el := time.Since(in.epoch)

	in.mu.Lock()
	if in.blackoutActive(fc.from, el) || in.blackoutActive(fc.to, el) ||
		in.partitionActive(fc.from, fc.to, el) {
		in.record(fc.from, fc.to, "blocked", 0)
		in.mu.Unlock()
		fc.Conn.Close()
		return 0, &injectedError{kind: "partition"}
	}
	ls := in.link(fc.from, fc.to)
	idx := ls.frames
	ls.frames++
	cfg := &in.cfg
	r := ls.rng
	var d decision
	// One uniform draw per configured fault class keeps each link's
	// decision stream a pure function of its frame index.
	if cfg.Drop > 0 && r.Float64() < cfg.Drop {
		d.drop = true
		in.record(fc.from, fc.to, "drop", idx)
	}
	if cfg.Dup > 0 && r.Float64() < cfg.Dup {
		d.dup = true
	}
	if cfg.Reorder > 0 && r.Float64() < cfg.Reorder {
		d.reorderHold = true
	}
	if cfg.Corrupt > 0 && r.Float64() < cfg.Corrupt {
		d.corrupt = true
		d.corruptAt = r.Intn(1 << 16)
	}
	if cfg.Delay > 0 && r.Float64() < cfg.Delay {
		d.delay = time.Duration(1 + r.Int63n(int64(cfg.DelayMax)))
	}
	if cfg.Stall > 0 && r.Float64() < cfg.Stall {
		d.stall = cfg.StallFor
	}
	if cfg.Sever > 0 && r.Float64() < cfg.Sever &&
		(cfg.SeverMax == 0 || ls.severs < cfg.SeverMax) {
		d.sever = true
		ls.severs++
	}
	if d.drop {
		// Nothing else applies to a dropped frame, but a held reorder
		// frame must still be released or it would leak.
		d.release = ls.held
		ls.held = nil
		in.mu.Unlock()
		if len(d.release) > 0 {
			if _, err := fc.Conn.Write(d.release); err != nil {
				return 0, err
			}
		}
		return len(b), nil
	}
	if d.reorderHold && ls.held == nil {
		// Hold this frame; it is written after the next one.
		ls.held = append([]byte(nil), b...)
		in.record(fc.from, fc.to, "reorder", idx)
		in.mu.Unlock()
		return len(b), nil
	}
	d.release = ls.held
	ls.held = nil
	if d.dup {
		in.record(fc.from, fc.to, "dup", idx)
	}
	if d.corrupt {
		in.record(fc.from, fc.to, "corrupt", idx)
	}
	if d.delay > 0 {
		in.record(fc.from, fc.to, "delay", idx)
	}
	if d.stall > 0 {
		in.record(fc.from, fc.to, "stall", idx)
	}
	if d.sever {
		in.record(fc.from, fc.to, "sever", idx)
	}
	in.mu.Unlock()

	if d.stall > 0 {
		time.Sleep(d.stall)
	} else if d.delay > 0 {
		time.Sleep(d.delay)
	}
	out := b
	if d.corrupt && len(b) > headerBytes {
		// Flip one payload byte; the header stays valid so the receiver
		// exercises its CRC path rather than the magic check.
		out = append([]byte(nil), b...)
		out[headerBytes+d.corruptAt%(len(b)-headerBytes)] ^= 0x40
	}
	if _, err := fc.Conn.Write(out); err != nil {
		return 0, err
	}
	if d.dup {
		if _, err := fc.Conn.Write(out); err != nil {
			return 0, err
		}
	}
	// A frame held for reordering is released after its successor — the
	// one-place transposition that makes "reorder" mean something on an
	// ordered byte stream.
	if len(d.release) > 0 {
		if _, err := fc.Conn.Write(d.release); err != nil {
			return 0, err
		}
	}
	if d.sever {
		fc.Conn.Close()
		return len(b), &injectedError{kind: "sever"}
	}
	return len(b), nil
}

// headerBytes mirrors the transport frame header size so corruption
// targets the payload (CRC-protected), not the header (magic-protected).
// Kept in sync by a transport test.
const headerBytes = 36
