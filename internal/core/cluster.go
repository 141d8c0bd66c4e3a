// Package core implements the Gravel runtime — the paper's primary
// contribution (§3.4, §4, §6): a cluster of nodes where each node's GPU
// offloads fine-grain PGAS messages at work-group granularity through a
// producer/consumer queue to a CPU aggregator, which combines messages
// per destination into 64 kB per-node queues; a per-node network thread
// resolves received messages (and all atomics, local or not) as local
// memory operations.
//
// Execution is functionally real — goroutines, atomics, actual message
// buffers — while time is virtual (package timemodel). The same Cluster
// also powers the message-per-lane baseline (SendPerMessage bypasses
// message combining), and its exported internals are reused by the
// coprocessor and coalesced-API baselines in package models.
package core

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"gravel/internal/agg"
	"gravel/internal/fabric"
	"gravel/internal/obs"
	"gravel/internal/park"
	"gravel/internal/pgas"
	"gravel/internal/queue"
	"gravel/internal/rt"
	"gravel/internal/simt"
	"gravel/internal/timemodel"
	_ "gravel/internal/transport" // registers the "loopback" and "tcp" transports
	"gravel/internal/wire"
)

// Config configures a cluster.
type Config struct {
	// Name labels the system (defaults to "gravel").
	Name string
	// Nodes is the cluster size.
	Nodes int
	// Params is the virtual-time cost model; nil means timemodel.Default.
	Params *timemodel.Params
	// WGSize is the work-group size in lanes (default 256 = 4 WFs).
	WGSize int
	// DivMode selects diverged WG-level operation behaviour (§5).
	DivMode simt.DivergenceMode
	// Send is the nodes' send path, and with it what a node builds for
	// it: the producer/consumer queue (SendQueue, the default, or
	// SendPerMessage without combining), the archive strategy's
	// per-destination archives (SendArchive), or neither (SendOwn).
	Send SendPath
	// Arch overrides the device architecture (nil = the paper's GPU);
	// used by the Figure 13 CPU-only baseline.
	Arch *simt.Arch
	// LocalAtomicsDirect disables the paper's §6 design choice of
	// serializing even node-local atomics through the network thread:
	// instead the GPU executes local increments as concurrent
	// read-modify-writes. The paper found its approach faster; the
	// ablation in internal/bench reproduces that comparison.
	LocalAtomicsDirect bool
	// ResolverShards splits each node's receive-side resolution into
	// this many concurrent per-bank resolvers (see resolver.go). 0 or 1
	// is the paper's serial network thread, bit-identical to the
	// pre-sharding runtime; more must be a power of two, at most
	// fabric.MaxResolverBanks.
	ResolverShards int
	// Transport names a registered fabric transport: "" or "chan" (the
	// default in-process channel fabric), "loopback" (in-process with
	// real framing), or "tcp" (real sockets; the cluster spans OS
	// processes, one hosted node per process).
	Transport string
	// TransportOpts configures non-default transports (addresses,
	// coordinator, failure detection, fault injection).
	TransportOpts fabric.Options
}

// SendPath is how a node's kernels hand their messages to the CPU side
// (Config.Send). A node builds what its path writes and nothing else.
type SendPath int

const (
	// SendQueue is Gravel's (§4.1): pcqWriter fills a slot of the node's
	// producer/consumer queue, whose ticket aggregator (agg.Aggregator)
	// drains and repacks it into per-destination builders. A model with
	// its own Offloader may fill the slots itself (Node.Enqueue).
	SendQueue SendPath = iota
	// SendPerMessage is SendQueue without combining, the
	// message-per-lane baseline (§3.2, §7.2): every message becomes its
	// own wire packet.
	SendPerMessage
	// SendArchive is the grape-style rival: archAppender appends at
	// wavefront granularity straight into the archive strategy's
	// per-destination archives (agg.Archive). No queue.
	SendArchive
	// SendOwn is a rival model that brings its own Offloader to
	// LaunchAll or Kernel and owns its buffering (§3). No queue, and
	// Step has no send path: the node's ticket aggregator only stages
	// HostAM follow-ups.
	SendOwn
)

// Fabric is the interconnect interface the runtime depends on; concrete
// transports live in internal/fabric ("chan") and internal/transport
// ("loopback", "tcp").
type Fabric = fabric.Fabric

// Node is one simulated machine: an APU (GPU + CPU threads) plus a NIC.
// PCQ is nil unless the node's send path is SendQueue or
// SendPerMessage. A node another process hosts is its ID and its ledger
// only: its GPU, PCQ and Agg are nil.
type Node struct {
	ID     int
	GPU    *simt.Device
	PCQ    *queue.Gravel
	Agg    agg.Strategy
	Clocks *timemodel.Clocks // the ledger: virtual time and every count Stats reports

	cl *Cluster

	// kern adapts a LaunchAll's kernel to this node's device, kernRun
	// being its bound run method: one of each per node, not per launch.
	kern    kernelAdapter
	kernRun func(*simt.Group)

	// dev is the node's device thread, nil for the last hosted node.
	dev *deviceThread
	// drained is !draining, bound once for the launch epilogue's wait.
	drained func() bool
}

// Cluster implements rt.System for Gravel (and, with SendPerMessage,
// the message-per-lane model).
type Cluster struct {
	cfg    Config
	params *timemodel.Params
	space  *pgas.Space
	fab    fabric.Fabric
	nodes  []*Node
	clocks []*timemodel.Clocks // the nodes' ledgers, in node order
	off    []Offloader         // per node: the send path Step launches through, nil where not hosted or SendOwn

	handlers []rt.AMHandler

	// Receive-side resolution (resolver.go): shards is the per-node
	// resolver bank count; bankMu serializes applies per (node, bank);
	// recvFailure holds the first failure to apply a packet (a
	// *WireDecodeError, or what an AM handler panicked), sticky, for
	// Quiesce to raise.
	shards      int
	bankMu      [][]sync.Mutex
	recvFailure atomic.Pointer[any]

	// dist is fab's multi-process side, nil on an in-process fabric:
	// the step barrier (Quiesce), the fatal error (the barrier panics it
	// on the Step goroutine; a kernel blocked in WaitUntil has to be let
	// go first), the staged read's hook and the fault injector's
	// counters.
	dist fabric.Distributed

	// The phase record: prev is every node's ledger as the last phase
	// boundary left it, the one reading both a phase's time and its
	// StepStats are the change since; cur is the boundary being taken,
	// and bankDiff holds one node's per-bank change. The step ledger:
	// steps rings the last stepWindow steps, earlier sums those evicted,
	// byName sums by name. stepStart is the last RunNodes' wall clock.
	prev, cur []timemodel.Snapshot
	bankDiff  []float64
	totalNs   float64
	steps     []rt.StepStats
	earlier   rt.StepStats
	byName    []rt.PhaseStats
	stepStart time.Time

	// The per-node fan-out (RunNodes): what the device threads run and
	// report to. launch is LaunchAll's arguments and launchOn its bound
	// per-node body; running counts the device threads that have not
	// finished what they were handed, and whichever lowers it to zero
	// wakes handedBack, where the Step goroutine waits; failure is the
	// fan-out's first panic; Close sets stopping.
	launch     launchArgs
	launchOn   func(n *Node, grid int)
	running    atomic.Int32
	handedBack park.Event
	failure    atomic.Pointer[any]
	stopping   atomic.Bool
	devWG      sync.WaitGroup

	netWG    sync.WaitGroup
	launched bool // the first launch has passed its start barrier
}

// ConfigError reports an invalid Config, or a call the cluster's shape
// rules out: which field or call is wrong and why. It is the error
// Validate and NewChecked return, and the value New, a Step on a grid
// that is not one entry per node, and the 257th RegisterAM panic; the
// public gravel.ConfigError is this type.
type ConfigError struct {
	Field  string // the offending Config field ("Nodes", "WGSize", ...), or "grid" or "RegisterAM"
	Reason string
}

func (e *ConfigError) Error() string {
	return "gravel: invalid " + e.Field + ": " + e.Reason
}

func invalid(field, format string, args ...any) error {
	return &ConfigError{Field: field, Reason: fmt.Sprintf(format, args...)}
}

// Validate checks the configuration and returns a *ConfigError
// describing the first problem found, or nil. It is the only place
// configuration rules live: every constructor above it (models,
// gravel, the cmd binaries) goes through it.
func (cfg Config) Validate() error {
	if cfg.Nodes <= 0 {
		return invalid("Nodes", "cluster size %d, need at least 1", cfg.Nodes)
	}
	wf := timemodel.Default().WFWidth
	if cfg.Params != nil {
		wf = cfg.Params.WFWidth
	}
	if cfg.WGSize < 0 || cfg.WGSize%wf != 0 {
		return invalid("WGSize", "work-group size %d must be a positive multiple of the wavefront width %d", cfg.WGSize, wf)
	}
	if cfg.Send < SendQueue || cfg.Send > SendOwn {
		return invalid("Send", "unknown send path %d (have SendQueue, SendPerMessage, SendArchive, SendOwn)", cfg.Send)
	}
	if cfg.ResolverShards != 0 && !fabric.ValidBanks(cfg.ResolverShards) {
		return invalid("ResolverShards", "resolver shard count %d must be a power of two in [1, %d]", cfg.ResolverShards, fabric.MaxResolverBanks)
	}
	if cfg.Transport != "" && !slices.Contains(fabric.Names(), cfg.Transport) {
		return invalid("Transport", "unknown transport %q (have %v)", cfg.Transport, fabric.Names())
	}
	if cfg.Transport == "tcp" {
		// One process per node: which one this is, and where the others
		// rendezvous, are not optional.
		if self := cfg.TransportOpts.Self; self < 0 || self >= cfg.Nodes {
			return invalid("TransportOpts.Self", "hosted node %d out of range [0, %d)", self, cfg.Nodes)
		}
		if cfg.Nodes > 1 && cfg.TransportOpts.Coord == "" {
			return invalid("TransportOpts.Coord", "%d nodes but no coordinator: peer discovery requires one", cfg.Nodes)
		}
	}
	return nil
}

// New builds and starts a cluster. It panics the error NewChecked
// would return.
func New(cfg Config) *Cluster {
	cl, err := NewChecked(cfg)
	if err != nil {
		panic(err)
	}
	return cl
}

// NewChecked builds and starts a cluster, returning a *ConfigError for
// an invalid configuration and the transport's own error if the fabric
// cannot be brought up (an unbindable address, an unreachable
// coordinator).
func NewChecked(cfg Config) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Params == nil {
		cfg.Params = timemodel.Default()
	}
	if cfg.WGSize == 0 {
		cfg.WGSize = 4 * cfg.Params.WFWidth
	}
	if cfg.Name == "" {
		cfg.Name = "gravel"
	}
	shards := max(1, cfg.ResolverShards)
	p := cfg.Params

	cl := &Cluster{cfg: cfg, params: p, shards: shards}

	clocks := make([]*timemodel.Clocks, cfg.Nodes)
	for i := range clocks {
		clocks[i] = &timemodel.Clocks{}
		clocks[i].ConfigureNetBanks(shards)
	}
	cl.clocks = clocks
	transport := cfg.Transport
	if transport == "" {
		transport = "chan"
	}
	opts := cfg.TransportOpts
	opts.ResolverBanks = shards
	var err error
	if cl.fab, err = fabric.NewByName(transport, p, clocks, opts); err != nil {
		return nil, err
	}
	cl.dist, _ = cl.fab.(fabric.Distributed)
	cl.space = pgas.NewHostedSpace(cfg.Nodes, cl.fab.Hosts)
	cl.bankMu = make([][]sync.Mutex, cfg.Nodes)
	for i := range cl.bankMu {
		if cl.fab.Hosts(i) {
			cl.bankMu[i] = make([]sync.Mutex, shards)
		}
	}

	arch := simt.GPUArch(p)
	if cfg.Arch != nil {
		arch = *cfg.Arch
	}

	slotBytes := wire.SlotRows * cfg.WGSize * 8
	numSlots := p.PCQBytes / slotBytes
	if numSlots < 4 {
		numSlots = 4
	}

	cl.launchOn = cl.launchNode
	cl.nodes = make([]*Node, cfg.Nodes)
	cl.off = make([]Offloader, cfg.Nodes)
	for i := range cl.nodes {
		n := &Node{ID: i, Clocks: clocks[i], cl: cl}
		cl.nodes[i] = n
		// A multi-process transport hosts one node per process; the
		// others keep only their ledgers, which every Stats sums.
		if !cl.fab.Hosts(i) {
			continue
		}
		n.kern.n, n.kernRun = n, n.kern.run
		n.drained = func() bool { return !n.draining() }
		n.GPU = simt.NewDevice(arch)
		n.GPU.Mode = cfg.DivMode
		n.GPU.Clock = n.Clocks
		switch cfg.Send {
		case SendQueue, SendPerMessage:
			n.PCQ = queue.NewGravel(numSlots, wire.SlotRows, cfg.WGSize)
			n.PCQ.Owner = i
			n.Agg = agg.New(i, p, n.PCQ, cl.fab, n.Clocks, cfg.Send == SendPerMessage)
			cl.off[i] = pcqWriter{n}
		case SendArchive:
			ar := agg.NewArchive(i, p, nil, cl.fab, n.Clocks, true)
			n.Agg, cl.off[i] = ar, archAppender{ar}
		case SendOwn:
			n.Agg = agg.New(i, p, nil, cl.fab, n.Clocks, false)
		}
	}

	cl.prev = make([]timemodel.Snapshot, cfg.Nodes)
	cl.cur = make([]timemodel.Snapshot, cfg.Nodes)
	cl.bankDiff = make([]float64, 0, shards)
	// Resolvers (and the local bypass registration) come up before the
	// aggregators so the bypass hook happens-before the first Send.
	cl.startResolvers()
	var last *Node
	for _, n := range cl.nodes {
		if n.Agg == nil {
			continue
		}
		n.Agg.Start()
		// Every hosted node but the last gets a device thread: the last
		// can only be a fan-out's last, which the Step goroutine runs.
		if last != nil {
			last.dev = &deviceThread{}
			cl.devWG.Add(1)
			go cl.deviceLoop(last)
		}
		last = n
	}
	if cl.dist != nil {
		cl.dist.SetStaged(cl.flushStaged)
	}
	return cl, nil
}

// flushStaged is the staged read of every quiet observation this
// process takes (fabric.Observe): it reports whether any node holds
// messages short of the fabric, and flushes a node that is sending once
// it is no longer draining — under a slot an aggregator thread has
// claimed, a flush would split a per-node queue in two. What it flushes
// is what the launch epilogues left staged: an active message's
// follow-up (HostAM from a handler, staged via Agg.AppendDirect), which
// would otherwise sit in a partially filled queue with nothing left to
// flush it while the ledgers balance.
func (cl *Cluster) flushStaged() bool {
	staged := false
	for _, n := range cl.nodes {
		switch {
		case n.Agg == nil: // another process's node holds nothing here
		case n.draining():
			staged = true
		case n.sending():
			n.Agg.Flush()
			staged = true
		}
	}
	return staged
}

// draining reports whether the node holds messages that have not
// reached staging: in the producer/consumer queue, if it has one, or
// claimed by an aggregator thread. Empty is already true while a thread
// holds a claimed slot it has not repacked; Busy, read after Empty,
// covers that claim.
func (n *Node) draining() bool { return n.PCQ != nil && !n.PCQ.Empty() || n.Agg.Busy() }

// sending reports whether the node holds messages anywhere short of
// the fabric: draining, staged, in the outbox, or taken out of it by a
// pump that has not handed them to the fabric yet. Busy is read again
// last because a pump raises it before the outbox empties and lowers it
// after Send: read in the direction messages move, one in transit is
// never missed.
func (n *Node) sending() bool { return n.draining() || n.Agg.Pending() || n.Agg.Busy() }

// Name implements rt.System.
func (cl *Cluster) Name() string { return cl.cfg.Name }

// Nodes implements rt.System.
func (cl *Cluster) Nodes() int { return cl.cfg.Nodes }

// Space implements rt.System.
func (cl *Cluster) Space() *pgas.Space { return cl.space }

// Params returns the cost model in use.
func (cl *Cluster) Params() *timemodel.Params { return cl.params }

// WGSize returns the configured work-group size.
func (cl *Cluster) WGSize() int { return cl.cfg.WGSize }

// Node returns node i (exported for the baseline models and tests).
func (cl *Cluster) Node(i int) *Node { return cl.nodes[i] }

// Fabric returns the interconnect (exported for the baseline models and
// the multi-process node runtime).
func (cl *Cluster) Fabric() Fabric { return cl.fab }

// RegisterAM implements rt.System. Handlers must be registered before
// the first Step. An AM names its handler in one byte: the 257th panics
// a *ConfigError.
func (cl *Cluster) RegisterAM(h rt.AMHandler) uint8 {
	if len(cl.handlers) > 255 {
		panic(invalid("RegisterAM", "an active message names its handler in one byte: 256 handlers at most"))
	}
	cl.handlers = append(cl.handlers, h)
	return uint8(len(cl.handlers) - 1)
}

// Step implements rt.System: launch the kernel everywhere, quiesce,
// record the phase with overlapped composition (§3.4: Gravel overlaps
// communication and computation).
func (cl *Cluster) Step(name string, grid []int, scratchPerWG int, k rt.Kernel) {
	cl.LaunchAll(grid, scratchPerWG, cl.off, k)
	cl.Quiesce()
	cl.EndPhaseOverlapped(name)
}

// startBarrier is a step barrier before the cluster's first launch and
// nothing after it. Across processes, nothing else orders one worker's
// first messages after a slower peer's array allocations (allocations
// precede the first Step). It charges no virtual time and is a no-op
// in-process.
func (cl *Cluster) startBarrier() {
	if !cl.launched {
		cl.launched = true
		if cl.dist != nil {
			cl.dist.StepBarrier()
		}
	}
}

// LaunchAll launches kernel k with grid[i] work-items on node i, whose
// verbs send through off[i]. It blocks until all devices finish (but
// does not quiesce or record a phase). Baseline models build their
// Steps from this.
func (cl *Cluster) LaunchAll(grid []int, scratchPerWG int, off []Offloader, k rt.Kernel) {
	cl.launch = launchArgs{scratchPerWG, off, k}
	cl.RunNodes(grid, cl.launchOn)
}

// launchArgs is what one LaunchAll launches on every node.
type launchArgs struct {
	scratchPerWG int
	off          []Offloader
	k            rt.Kernel
}

// launchNode is LaunchAll's per-node body (Cluster.launchOn). Its
// epilogue is the node's timeout flush (§3.4), where the kernel ran,
// side by side with the other nodes' (DESIGN.md §4.14): drain the
// queue here, wait out a slot an aggregator thread claimed first (a
// flush under it would split a per-node queue in two), flush.
func (cl *Cluster) launchNode(n *Node, grid int) {
	n.Clocks.AddHost(cl.params.KernelLaunchNs)
	n.kern.off, n.kern.k = cl.launch.off[n.ID], cl.launch.k
	n.GPU.Launch(grid, cl.cfg.WGSize, cl.launch.scratchPerWG, n.kernRun)
	n.Agg.Drain()
	cl.fab.Progress().Wait(n.drained)
	n.Agg.Flush()
}

// deviceThread is a hosted node's persistent launcher (DESIGN.md
// §4.16): it runs what RunNodes hands its node, so the nodes of one
// Step run side by side without a goroutine made per launch. Waiting
// for its next launch it is what the next Step will wait for, so it
// spins before it parks.
type deviceThread struct {
	next   park.Event  // where the thread waits; RunNodes and Close wake it
	handed atomic.Bool // run and grid are set and not yet taken
	run    func(n *Node, grid int)
	grid   int
}

func (cl *Cluster) deviceLoop(n *Node) {
	defer cl.devWG.Done()
	d := n.dev
	for {
		d.next.Wait(func() bool { return d.handed.Load() || cl.stopping.Load() })
		if !d.handed.Swap(false) {
			return
		}
		cl.runNode(n, d.grid, d.run)
		if cl.running.Add(-1) == 0 {
			cl.handedBack.Wake()
		}
	}
}

// runNode calls run for one node and keeps the fan-out's first panic
// for RunNodes.
func (cl *Cluster) runNode(n *Node, grid int, run func(n *Node, grid int)) {
	defer func() {
		if r := recover(); r != nil {
			first := r // r itself must not escape: it is declared on every call
			cl.failure.CompareAndSwap(nil, &first)
		}
	}()
	run(n, grid)
}

// RunNodes calls run(n, grid[n.ID]) for every node with a positive grid
// entry, side by side: the last of them on the calling goroutine, each
// of the others on its node's device thread, and returns when all have.
// A grid that is not one entry per node panics a *ConfigError before
// anything runs. If any panicked (a verb's typed error in a kernel no
// one recovers), it re-panics the first value here, on the goroutine
// that called Step, after every node has returned. LaunchAll is built on it, as is a
// baseline model whose Step launches on its own, so a step's prologue
// (start barrier, wall clock, step-begin event) lives here: a Step calls
// RunNodes exactly once.
func (cl *Cluster) RunNodes(grid []int, run func(n *Node, grid int)) {
	if len(grid) != cl.cfg.Nodes {
		panic(invalid("grid", "a launch grid has %d entries for %d nodes", len(grid), cl.cfg.Nodes))
	}
	last := -1
	for i, g := range grid {
		if g <= 0 {
			continue
		}
		if cl.nodes[i].GPU == nil {
			panic(&DestError{Verb: "Launch", Node: i, Dest: i, Nodes: cl.cfg.Nodes})
		}
		last = i
	}
	cl.startBarrier()
	cl.stepStart = time.Now()
	if obs.Enabled() {
		obs.Emit(obs.KStepBegin, -1, int64(cl.stepCount()), 0, "")
	}
	if last < 0 {
		return
	}
	for i, n := range cl.nodes[:last] {
		if grid[i] <= 0 {
			continue
		}
		cl.running.Add(1)
		d := n.dev
		d.run, d.grid = run, grid[i]
		d.handed.Store(true)
		d.next.Wake()
	}
	cl.runNode(cl.nodes[last], grid[last], run)
	cl.handedBack.Wait(cl.allBack)
	if r := cl.failure.Swap(nil); r != nil {
		panic(*r)
	}
}

func (cl *Cluster) allBack() bool { return cl.running.Load() == 0 }

// Quiesce blocks until every initiated message has been applied: all
// producer/consumer queues drained, all per-node queues flushed, and
// every record the fabric took consumed. It is the step barrier on
// every fabric. Where it has to wait it parks on the fabric's Progress
// event (DESIGN.md §4.16).
//
// In-process it returns on one observation of the nodes' ledgers with
// flushStaged as the staged read (fabric.Observe, DESIGN.md §4.14) that
// finds nothing staged and the sums equal. Once an observation has
// found nothing staged, the next waits for the ledger itself to balance
// (the fabric's Quiet, cheap enough for every spin); while one finds
// something staged, the next follows at once, so an AM cascade's reply
// leaves as soon as it is seen. Across processes
// it is the step vote, whose ballots are that observation over the
// hosted node: it returns when the vote releases, passed, so a fast
// process cannot read results or send the next step's messages before a
// skewed peer's are applied.
func (cl *Cluster) Quiesce() {
	if cl.dist != nil {
		cl.dist.StepBarrier()
	} else {
		staged := true
		flush := func() bool { staged = cl.flushStaged(); return staged }
		cl.fab.Progress().Wait(func() bool {
			if !staged && !cl.fab.Quiet() {
				return false
			}
			departed, consumed, idle := fabric.Observe(cl.clocks, flush)
			return idle && departed == consumed
		})
	}
	cl.checkRecvFailure()
}

// stepWindow is how many recent steps' records the step ledger keeps.
const stepWindow = 1024

// stepCount is how many steps the cluster has recorded.
func (cl *Cluster) stepCount() int { return cl.earlier.Index + len(cl.steps) }

// EndPhaseOverlapped snapshots per-node clocks since the previous phase
// and records a phase whose per-node time is the busiest-resource bound.
func (cl *Cluster) EndPhaseOverlapped(name string) {
	cl.endPhase(name, timemodel.Snapshot.Overlapped)
}

// EndPhaseSequential is EndPhaseOverlapped with bulk-synchronous
// composition (used by the coprocessor baseline).
func (cl *Cluster) EndPhaseSequential(name string) {
	cl.endPhase(name, timemodel.Snapshot.Sequential)
}

// endPhase records a phase, the funnel every model's Step ends in: it
// reads every node's ledger once, composes each node's phase time from
// the change since the last phase, and takes the cluster's as the
// slowest node plus one barrier. Then it charges the aggregator cores'
// idle time, which completes the reading, records the step's counts as
// the change in the ledgers, and closes the flight recorder's step span.
func (cl *Cluster) endPhase(name string, compose func(timemodel.Snapshot) float64) {
	step := rt.StepStats{Index: cl.stepCount(), Name: name}
	m := 0.0
	for i, n := range cl.nodes {
		n.Clocks.Read(&cl.cur[i])
		d := cl.cur[i].SubInto(cl.prev[i], cl.bankDiff)
		m = max(m, compose(d))
		count(&step, d)
	}
	phase := m + cl.params.BarrierNs
	cl.totalNs += phase
	step.VirtualNs = phase
	cl.addPhase(name, phase)

	// §8.1: an aggregator core that is not repacking is polling, for as
	// long as the phase lasts on the virtual clock — whatever the Go
	// scheduler did with the thread that plays it.
	for i, n := range cl.nodes {
		if cur := &cl.cur[i]; cl.fab.Hosts(i) {
			idle := n.Clocks.AddAggIdle(max(0, phase-(cur.Agg-cl.prev[i].Agg)))
			step.AggIdleNs += idle - cur.AggIdle
			cur.AggIdle = idle
		}
	}
	cl.prev, cl.cur = cl.cur, cl.prev

	var wall int64
	if !cl.stepStart.IsZero() {
		wall = time.Since(cl.stepStart).Nanoseconds()
		cl.stepStart = time.Time{}
	}
	step.WallNs = wall
	if n := len(cl.steps); n == stepWindow {
		old := &cl.steps[step.Index%stepWindow]
		fold(&cl.earlier, old)
		*old = step
	} else {
		if n == cap(cl.steps) { // grow by half, up to the window exactly
			cl.steps = append(make([]rt.StepStats, 0, min(n+n/2+16, stepWindow)), cl.steps...)
		}
		cl.steps = append(cl.steps, step)
	}
	if obs.Enabled() {
		obs.Emit(obs.KStepEnd, -1, wall, int64(phase), name)
		obs.ObserveStepWall(wall)
	}
}

// HostAM implements rt.System: it initiates an active message from
// host context on node from — typically from inside an AM handler,
// enabling request/reply protocols. The message is staged into the
// node's aggregator and is applied before the enclosing Step returns
// (the quiescence protocol iterates until no messages remain anywhere).
// A from or dest outside the cluster, or a from this process does not
// host, panics a *DestError; from inside a handler, Quiesce raises it on
// the Step goroutine.
func (cl *Cluster) HostAM(from int, h uint8, dest int, a, b uint64) {
	if nodes := len(cl.nodes); uint(from) >= uint(nodes) || uint(dest) >= uint(nodes) || cl.nodes[from].Agg == nil {
		panic(&DestError{Verb: "HostAM", Node: from, Dest: dest, Nodes: nodes})
	}
	n := cl.nodes[from]
	// Charge the initiation to the bank that will resolve the message —
	// always bank 0 for AMs (fabric.BankOfRecord) — so banked NetBound
	// (max over banks) still sees it; at one shard this is the serial
	// network thread's clock.
	n.Clocks.AddNetBank(0, cl.params.NetThreadPerMsgNs)
	if dest == from {
		n.Clocks.CountOps(1, 0)
	} else {
		n.Clocks.CountOps(0, 1)
	}
	n.Agg.AppendDirect(dest, wire.PackCmd(wire.OpAM, h, 0), a, b, 0)
}

// ChargeHost implements rt.System.
func (cl *Cluster) ChargeHost(ns float64) {
	for _, n := range cl.nodes {
		n.Clocks.AddHost(ns)
	}
}

// VirtualTimeNs implements rt.System.
func (cl *Cluster) VirtualTimeNs() float64 { return cl.totalNs }

// addPhase adds a step of ns to the sums of the steps called name,
// adding their row the first time the name is seen.
func (cl *Cluster) addPhase(name string, ns float64) {
	i := slices.IndexFunc(cl.byName, func(p rt.PhaseStats) bool { return p.Name == name })
	if i < 0 {
		i, cl.byName = len(cl.byName), append(cl.byName, rt.PhaseStats{Name: name})
	}
	p := &cl.byName[i]
	p.Steps, p.VirtualNs, p.MaxNs = p.Steps+1, p.VirtualNs+ns, max(p.MaxNs, ns)
}

// fold adds step s, evicted from the ring, into t, the sum of the
// steps before the ring, and counts it in t.Index.
func fold(t, s *rt.StepStats) {
	t.Index++
	t.VirtualNs += s.VirtualNs
	t.WallNs += s.WallNs
	t.LocalOps, t.RemoteOps = t.LocalOps+s.LocalOps, t.RemoteOps+s.RemoteOps
	t.SlotsDrained, t.MsgsDrained = t.SlotsDrained+s.SlotsDrained, t.MsgsDrained+s.MsgsDrained
	t.WirePackets, t.WireBytes = t.WirePackets+s.WirePackets, t.WireBytes+s.WireBytes
	t.SelfPackets += s.SelfPackets
	t.AggBusyNs, t.AggIdleNs = t.AggBusyNs+s.AggBusyNs, t.AggIdleNs+s.AggIdleNs
	t.ResolvedPackets, t.ResolvedMsgs = t.ResolvedPackets+s.ResolvedPackets, t.ResolvedMsgs+s.ResolvedMsgs
	t.ResolvedAMs += s.ResolvedAMs
	t.BypassPackets, t.BypassMsgs = t.BypassPackets+s.BypassPackets, t.BypassMsgs+s.BypassMsgs
	t.Signals, t.Waits = t.Signals+s.Signals, t.Waits+s.Waits
}

// count adds a ledger reading, or the change between two, to t's
// counters.
func count(t *rt.StepStats, s timemodel.Snapshot) {
	t.LocalOps += s.LocalOps
	t.RemoteOps += s.RemoteOps
	t.SlotsDrained += s.AggSlots
	t.MsgsDrained += s.AggMsgs
	t.WirePackets += s.PktsSent
	t.WireBytes += s.BytesSent
	t.SelfPackets += s.SelfPkts
	t.AggBusyNs += s.Agg
	t.AggIdleNs += s.AggIdle
	t.ResolvedPackets += s.Resolved.Pkts
	t.ResolvedMsgs += s.Resolved.Msgs
	t.ResolvedAMs += s.Resolved.AMs
	t.BypassPackets += s.Bypass.Pkts
	t.BypassMsgs += s.Bypass.Msgs
	t.Signals += s.Resolved.Sigs + s.Bypass.Sigs
	t.Waits += s.Waits
}

// Stats implements rt.System: the versioned snapshot every section of
// the runtime reports through. Its counts are the sum of the nodes'
// live ledgers, the same readings the per-step records are the changes
// in, so Earlier and the steps sum to them; only the transport's own
// events and the fault injector's come from elsewhere.
func (cl *Cluster) Stats() rt.Stats {
	st := rt.Stats{
		Version:   rt.StatsVersion,
		Model:     cl.cfg.Name,
		Nodes:     cl.cfg.Nodes,
		VirtualNs: cl.totalNs,
	}
	var cur rt.StepStats
	var full, timeout int64
	var strategy string
	perBank := make([]rt.BankCount, cl.shards)
	for _, n := range cl.nodes {
		if n.Agg != nil {
			strategy = n.Agg.Name()
		}
		s := n.Clocks.Snapshot()
		count(&cur, s)
		full, timeout = full+s.FlushesFull, timeout+s.FlushesTimeout
		for b := range perBank {
			r := n.Clocks.Bank(b)
			perBank[b].Packets += r.Pkts
			perBank[b].Msgs += r.Msgs
			perBank[b].AMs += r.AMs
		}
	}
	st.Queue = rt.QueueStats{
		LocalOps:     cur.LocalOps,
		RemoteOps:    cur.RemoteOps,
		SlotsDrained: cur.SlotsDrained,
		MsgsDrained:  cur.MsgsDrained,
	}

	st.Agg = rt.AggStats{
		Strategy:       strategy,
		BusyNs:         cur.AggBusyNs,
		IdleNs:         cur.AggIdleNs,
		FlushesFull:    full,
		FlushesTimeout: timeout,
	}
	// Busy fraction of the aggregator cores over the run's virtual time
	// (the paper's §8.1 metric: 65% of the core's time is polling).
	if cl.totalNs > 0 {
		st.Agg.BusyFrac = cur.AggBusyNs / (cl.totalNs * float64(len(cl.nodes)))
	}

	st.Resolver = rt.ResolverStats{
		Shards:        cl.shards,
		Packets:       cur.ResolvedPackets,
		Msgs:          cur.ResolvedMsgs,
		AMs:           cur.ResolvedAMs,
		BypassPackets: cur.BypassPackets,
		BypassMsgs:    cur.BypassMsgs,
		PerBank:       perBank,
	}
	st.PGAS = rt.PGASStats{Signals: cur.Signals, Waits: cur.Waits}

	m := cl.fab.NetMetrics()
	st.Transport = rt.TransportStats{
		WirePackets:   cur.WirePackets,
		WireBytes:     cur.WireBytes,
		SelfPackets:   cur.SelfPackets,
		PerDest:       make([]rt.DestCount, cl.cfg.Nodes),
		Reconnects:    m.Reconnects.Load(),
		Retries:       m.Retries.Load(),
		Malformed:     m.Malformed.Load(),
		CorruptFrames: m.CorruptFrames.Load(),
	}
	if cur.WirePackets > 0 {
		st.Transport.AvgPacketBytes = float64(cur.WireBytes) / float64(cur.WirePackets)
	}
	for d := range st.Transport.PerDest {
		st.Transport.PerDest[d] = rt.DestCount{Packets: m.PerDest[d].Packets.Load(), Bytes: m.PerDest[d].Bytes.Load()}
	}

	if cl.dist != nil {
		if in := cl.dist.FaultInjector(); in.Enabled() {
			st.Faults.Enabled = true
			st.Faults.Seed = in.Config().Seed
			c := in.Counters()
			st.Faults.Drop, st.Faults.Dup, st.Faults.Reorder, st.Faults.Corrupt = c.Drop, c.Dup, c.Reorder, c.Corrupt
			st.Faults.Delay, st.Faults.Stall, st.Faults.Sever, st.Faults.Blocked = c.Delay, c.Stall, c.Sever, c.Blocked
		}
	}

	oldest := cl.stepCount() % max(len(cl.steps), 1) // the next step's slot
	st.Steps = slices.Concat(cl.steps[oldest:], cl.steps[:oldest])
	st.Earlier = cl.earlier
	st.Phases = append([]rt.PhaseStats(nil), cl.byName...)
	return st
}

// Close implements rt.System.
func (cl *Cluster) Close() {
	if cl.stopping.Swap(true) {
		return
	}
	for _, n := range cl.nodes {
		if n.dev != nil {
			n.dev.next.Wake()
		}
	}
	cl.devWG.Wait()
	for _, n := range cl.nodes {
		if n.Agg != nil {
			n.Agg.Stop()
		}
	}
	cl.fab.Close()
	cl.netWG.Wait()
}

var _ rt.System = (*Cluster)(nil)
