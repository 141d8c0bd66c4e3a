// Package obs is Gravel's flight recorder: a structured tracing and
// metrics layer threaded through the whole message path — kernel steps,
// work-group slot reservations, queue stall waits, aggregator flushes,
// transport send/ack/retransmit/reconnect, and injected faults.
//
// The recorder is process-global and off by default. Disabled, every
// instrumentation site costs exactly one atomic flag load (Enabled);
// the hot paths guarded by the PR3 AllocsPerRun tests stay at zero
// allocations per operation. Enabled, events are appended to pooled
// per-thread ring buffers (a sync.Pool keeps one ring per P in steady
// state, so appends do not contend on a global lock) and the most
// recent RingCap events per ring survive — flight-recorder semantics:
// when something goes wrong, the tail of the trace is what you want.
//
// Alongside the event rings the recorder maintains latency histograms
// (queue reserve wait, flush→ack RTT, step wall time). Traces drain to
// JSONL (WriteJSONL, one event per line, timestamps monotonic) and the
// histograms export through the Prometheus-style /metrics endpoint in
// server.go.
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Kind identifies one trace event type. The JSONL schema (and
// ValidateJSONL) accepts exactly these kinds.
type Kind uint8

// Event kinds, covering the full message path.
const (
	// KStepBegin marks a kernel launch (tag = step name).
	KStepBegin Kind = iota + 1
	// KStepEnd marks a recorded phase: A = wall ns, B = virtual phase ns.
	KStepEnd
	// KSlotReserve is one work-group slot reservation: A = messages
	// reserved, B = slot sequence number.
	KSlotReserve
	// KQueueStallFull is a producer blocked on a full queue: A = ns waited.
	KQueueStallFull
	// KQueueStallEmpty is a consumer blocked behind an uncommitted
	// reservation: A = ns waited.
	KQueueStallEmpty
	// KAggFlushFull is a per-node queue flushed because it filled:
	// A = bytes, B = messages.
	KAggFlushFull
	// KAggFlushTimeout is a flush forced by the end-of-step timeout
	// flush: A = bytes, B = messages.
	KAggFlushTimeout
	// KSend is a wire packet staged on a transport: A = destination,
	// B = payload bytes.
	KSend
	// KAck is a cumulative acknowledgment trimming one frame:
	// A = sequence number, B = flush→ack RTT ns.
	KAck
	// KRetransmit is a window replay after a reconnect: A = destination,
	// B = frames replayed.
	KRetransmit
	// KReconnect is a re-established outbound connection: A = destination.
	KReconnect
	// KFault is one injected fault (tag = fault kind): A = peer,
	// B = per-link frame index.
	KFault
	// KEpoch is a membership epoch transition (tag = "recover" or
	// "rescale"): A = new generation, B = new node count.
	KEpoch
	// KCheckpoint is one shard checkpoint saved at a step barrier:
	// A = step, B = payload bytes.
	KCheckpoint
	// KRestore is one shard restored from a checkpoint: A = restored
	// step, B = saving epoch's node count.
	KRestore
	// KRecover is a completed recovery: the run healed from a worker
	// loss instead of aborting. A = generation that recovered,
	// B = epochs consumed so far.
	KRecover
	// KResolve is one packet applied by a resolver bank: A = bank,
	// B = messages applied.
	KResolve
	// KResolveBypass is one node-local packet resolved synchronously on
	// the sending goroutine (the from == to fast path): A = messages
	// applied, B = active messages among them.
	KResolveBypass
	// KWait is one WaitUntil verb call by a work-group: A = work-group
	// ID, B = active lanes waited on.
	KWait
	// KSignal is a batch of PUT_SIGNAL resolutions: A = resolver bank
	// (-1 on the bypass path), B = signals applied.
	KSignal
	// KCollective is one host collective (tag = "allreduce:<op>"):
	// A = team size (0 = world), B = the fold. A released TCP step vote is one too (tag
	// "step-vote"): A = rounds taken, B = the node whose ballot came
	// last.
	KCollective
	// KAggArchive is one archive-strategy segment sealed onto a
	// destination's chain (the grape-style aggregator): A = segment
	// bytes, B = segment messages.
	KAggArchive
)

var kindNames = [...]string{
	KStepBegin:       "step-begin",
	KStepEnd:         "step-end",
	KSlotReserve:     "slot-reserve",
	KQueueStallFull:  "queue-stall-full",
	KQueueStallEmpty: "queue-stall-empty",
	KAggFlushFull:    "agg-flush-full",
	KAggFlushTimeout: "agg-flush-timeout",
	KSend:            "send",
	KAck:             "ack",
	KRetransmit:      "retransmit",
	KReconnect:       "reconnect",
	KFault:           "fault",
	KEpoch:           "epoch",
	KCheckpoint:      "checkpoint",
	KRestore:         "restore",
	KRecover:         "recover",
	KResolve:         "resolve",
	KResolveBypass:   "resolve-bypass",
	KWait:            "wait",
	KSignal:          "signal",
	KCollective:      "collective",
	KAggArchive:      "agg-archive",
}

// String returns the JSONL name of the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return "unknown"
}

// KindFromString inverts String; ok is false for unknown names.
func KindFromString(s string) (Kind, bool) {
	for k, n := range kindNames {
		if n == s && n != "" {
			return Kind(k), true
		}
	}
	return 0, false
}

// Event is one trace record. TS is nanoseconds since the recorder
// started (monotonic). Node is the node the event happened on (-1 when
// the event is not node-specific). A and B are kind-specific arguments
// (see the Kind constants); Tag carries the step name or fault kind and
// is empty for hot-path events.
type Event struct {
	TS   int64
	Kind Kind
	Node int32
	A, B int64
	Tag  string
}

// ring is one pooled event buffer. A ring is owned by at most one
// goroutine at a time (between pool Get and Put), so appends need no
// lock; draining snapshots under the recorder's registry lock after
// tracing has been stopped or between appends.
type ring struct {
	buf  []Event
	next uint64 // events ever appended; buf[next%len(buf)] is the write slot
}

func (r *ring) append(e Event) {
	r.buf[r.next%uint64(len(r.buf))] = e
	r.next++
}

// events returns the ring's live events, oldest first.
func (r *ring) events() []Event {
	n := uint64(len(r.buf))
	if r.next <= n {
		return r.buf[:r.next]
	}
	out := make([]Event, 0, n)
	start := r.next % n
	out = append(out, r.buf[start:]...)
	out = append(out, r.buf[:start]...)
	return out
}

// Options configures a Recorder.
type Options struct {
	// RingCap is the event capacity of each per-thread ring buffer
	// (default 1 << 14). Once a ring wraps, its oldest events are
	// overwritten — the flight-recorder window.
	RingCap int
}

// Recorder collects trace events and latency histograms.
type Recorder struct {
	start   time.Time
	ringCap int

	pool sync.Pool

	mu    sync.Mutex
	rings []*ring // every ring ever created, for draining

	// Latency histograms (ns, power-of-two buckets).
	queueWait SizeHist // producer reserve wait
	flushRTT  SizeHist // transport flush→ack round trip
	stepWall  SizeHist // step wall time

	// Per-kind event counts, maintained even after a ring overwrites
	// its oldest events (the /metrics totals must be monotonic).
	counts [len(kindNames)]atomic.Int64
}

// NewRecorder builds a recorder; it records nothing until installed
// with Install (or used directly via its methods).
func NewRecorder(opt Options) *Recorder {
	if opt.RingCap <= 0 {
		opt.RingCap = 1 << 14
	}
	r := &Recorder{start: time.Now(), ringCap: opt.RingCap}
	r.pool.New = func() any {
		rg := &ring{buf: make([]Event, r.ringCap)}
		r.mu.Lock()
		r.rings = append(r.rings, rg)
		r.mu.Unlock()
		return rg
	}
	return r
}

// Now returns the recorder timebase: nanoseconds since Start, monotonic.
func (r *Recorder) Now() int64 { return int64(time.Since(r.start)) }

// Emit appends one event.
func (r *Recorder) Emit(k Kind, node int, a, b int64, tag string) {
	e := Event{TS: r.Now(), Kind: k, Node: int32(node), A: a, B: b, Tag: tag}
	rg := r.pool.Get().(*ring)
	rg.append(e)
	r.pool.Put(rg)
	r.counts[k].Add(1)
}

// Events returns every recorded event, merged across rings and sorted
// by timestamp.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	var out []Event
	for _, rg := range r.rings {
		out = append(out, rg.events()...)
	}
	r.mu.Unlock()
	sortEvents(out)
	return out
}

// sortEvents orders events by TS (stable insertion; traces are mostly
// sorted already because each ring is time-ordered).
func sortEvents(ev []Event) {
	for i := 1; i < len(ev); i++ {
		for j := i; j > 0 && ev[j].TS < ev[j-1].TS; j-- {
			ev[j], ev[j-1] = ev[j-1], ev[j]
		}
	}
}

// Count returns how many events of kind k were ever emitted (including
// events a wrapped ring has since overwritten).
func (r *Recorder) Count(k Kind) int64 { return r.counts[k].Load() }

// QueueWait returns the producer reserve-wait histogram (ns).
func (r *Recorder) QueueWait() *SizeHist { return &r.queueWait }

// FlushRTT returns the flush→ack round-trip histogram (ns).
func (r *Recorder) FlushRTT() *SizeHist { return &r.flushRTT }

// StepWall returns the step wall-time histogram (ns).
func (r *Recorder) StepWall() *SizeHist { return &r.stepWall }

// SizeHist is a concurrent histogram bucketed by power of two, plus the
// exact count and sum.
type SizeHist struct {
	buckets [32]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
}

// Observe records one value; a negative one counts as 0.
func (h *SizeHist) Observe(v int64) {
	v = max(v, 0)
	b := 0
	for x := v; x > 1 && b < len(h.buckets)-1; x >>= 1 {
		b++
	}
	h.buckets[b].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations.
func (h *SizeHist) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *SizeHist) Sum() int64 { return h.sum.Load() }

// BucketCount is one histogram bucket: N values in [Lo, 2*Lo) (the
// first bucket also holds 0).
type BucketCount struct{ Lo, N int64 }

// Buckets returns the non-empty buckets in ascending order.
func (h *SizeHist) Buckets() []BucketCount {
	var out []BucketCount
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n > 0 {
			out = append(out, BucketCount{Lo: 1 << i, N: n})
		}
	}
	return out
}

// Counts snapshots every kind's exact counter, keyed by kind name —
// the progress-stream view of the recorder (gravel-server diffs two
// snapshots to stream per-interval deltas).
func (r *Recorder) Counts() map[string]int64 {
	out := make(map[string]int64, len(kindNames)-1)
	for k := 1; k < len(kindNames); k++ {
		if n := r.counts[k].Load(); n != 0 {
			out[Kind(k).String()] = n
		}
	}
	return out
}

// ---- process-global recorder ----

var (
	enabled atomic.Bool
	active  atomic.Pointer[Recorder]
)

// Enabled reports whether the global recorder is on. This is the whole
// cost of a disabled instrumentation site: one atomic load, no calls,
// no allocations.
func Enabled() bool { return enabled.Load() }

// Install makes r the global recorder and turns instrumentation on.
// A nil r disables tracing (equivalent to Stop).
func Install(r *Recorder) {
	if r == nil {
		Stop()
		return
	}
	active.Store(r)
	enabled.Store(true)
}

// Start creates, installs, and returns a fresh global recorder.
func Start(opt Options) *Recorder {
	r := NewRecorder(opt)
	Install(r)
	return r
}

// Stop turns instrumentation off and returns the recorder that was
// active (nil if none). The recorder stays drainable after Stop.
func Stop() *Recorder {
	enabled.Store(false)
	r := active.Load()
	active.Store(nil)
	return r
}

// Active returns the installed recorder, or nil.
func Active() *Recorder { return active.Load() }

// Now returns the global recorder's timebase (0 when disabled). Use it
// to bracket a wait before reporting it with one of the Observe
// helpers, so both ends read the same clock.
func Now() int64 {
	if r := active.Load(); r != nil {
		return r.Now()
	}
	return 0
}

// Emit appends one event to the global recorder; a no-op when tracing
// is off. Callers on hot paths must guard with Enabled() so the
// disabled cost stays a single flag check rather than a call.
func Emit(k Kind, node int, a, b int64, tag string) {
	if r := active.Load(); r != nil {
		r.Emit(k, node, a, b, tag)
	}
}

// ObserveQueueWait records one producer reserve wait (and its stall
// event) on the global recorder.
func ObserveQueueWait(node int, ns int64) {
	if r := active.Load(); r != nil {
		r.queueWait.Observe(ns)
		r.Emit(KQueueStallFull, node, ns, 0, "")
	}
}

// ObserveConsumeWait records one consumer stall behind an uncommitted
// reservation on the global recorder.
func ObserveConsumeWait(node int, ns int64) {
	if r := active.Load(); r != nil {
		r.Emit(KQueueStallEmpty, node, ns, 0, "")
	}
}

// ObserveFlushRTT records one flush→ack round trip on the global
// recorder.
func ObserveFlushRTT(ns int64) {
	if r := active.Load(); r != nil {
		r.flushRTT.Observe(ns)
	}
}

// ObserveStepWall records one step's wall time on the global recorder.
func ObserveStepWall(ns int64) {
	if r := active.Load(); r != nil {
		r.stepWall.Observe(ns)
	}
}
