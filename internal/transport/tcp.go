package transport

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"gravel/internal/fabric"
	"gravel/internal/obs"
	"gravel/internal/timemodel"
	"gravel/internal/transport/fault"
	"gravel/internal/wire"
)

// Tunables of the TCP transport. Frames are whole per-node queues
// (64 kB by default), so modest queue depths already buffer megabytes.
const (
	sendQueueFrames  = 64  // staged frames per destination before Send blocks
	sendWindowFrames = 256 // written-but-unacked frames before the writer stalls
	recvQueueFrames  = 256 // received packets before the reader stalls (backpressure)

	dialTimeout      = 2 * time.Second
	backoffInitial   = 10 * time.Millisecond
	backoffMax       = time.Second
	handshakeTimeout = 5 * time.Second
	drainTimeout     = 8 * time.Second
	finAckTimeout    = 2 * time.Second

	// rexmitInterval bounds how long the oldest unacknowledged frame may
	// sit without ack progress before the writer reconnects and replays
	// the window. A receiver detects mid-stream loss as a sequence gap
	// and poisons the connection, but a frame lost at the *tail* of the
	// stream has no successor to expose the gap — only this timer
	// recovers it.
	rexmitInterval = 100 * time.Millisecond

	// Write coalescing: the writer drains its staged-frame queue in
	// bursts into one buffered writer and flushes either when the batch
	// stops growing past the flush deadline or when the buffer fills.
	// The deadline mirrors the aggregator's 125µs flush timeout (§6), so
	// batching never adds more latency than aggregation already budgets.
	coalesceFlushInterval = 125 * time.Microsecond
	coalesceBufBytes      = 256 << 10

	// defaultSuspectTimeout is how long a peer may be silent (no acks,
	// no successful dials, no coordinator heartbeats) before it is
	// declared down. Options.SuspectTimeout overrides; negative disables.
	defaultSuspectTimeout = 30 * time.Second

	finAckMark = math.MaxUint64 // in-band marker on the ack channel
)

// TCP is the real-socket transport: the cluster runs as one OS process
// per node, and per-node queues travel as CRC-framed, sequence-numbered
// messages over per-destination TCP connections.
//
// Reliability: each sender→destination stream numbers its data frames;
// the receiver acknowledges cumulatively and deduplicates, and the
// sender keeps a bounded window of unacknowledged frames that it
// retransmits after reconnecting (exponential backoff with jitter), so
// a dropped connection delays but never loses or duplicates messages.
//
// Quiescence: Quiet extends the runtime's Step barrier across
// processes through the rendezvous coordinator (see Coordinator) using
// monotonic sent/applied frame counters.
//
// Timing: with Options.WallClock the clocks charge measured wall time
// for wire activity; otherwise the virtual LogGP model is charged
// sender-side and receiver-side as in the in-process fabrics.
type TCP struct {
	*fabric.Metrics
	// The hosted node's inboxes: self-sends and received frames.
	*fabric.Endpoint

	params *timemodel.Params
	clocks []*timemodel.Clocks
	n      int
	self   int
	wall   bool
	gen    uint32 // membership generation (0 = fixed-membership, unstamped)

	ln      net.Listener
	coord   *coordClient
	senders []*sender

	// inj is the fault injector (nil in production: every hook passes
	// through).
	inj *fault.Injector

	// suspect/heartbeat drive failure detection; zero suspect disables
	// it entirely (the hand-built transports in tests stay inert).
	suspect   time.Duration
	heartbeat time.Duration

	// failedCh is closed by fail() on the first fatal transport error
	// (peer or coordinator declared down). After that, Send discards so
	// aggregator goroutines drain instead of blocking, and the
	// collective entry points (Quiet, StepBarrier, Reduce) surface
	// failErr — Quiet and StepBarrier by panicking it on the Step
	// goroutine, which the node runtime recovers into a nonzero exit.
	failOnce sync.Once
	failedCh chan struct{}
	failErr  error

	// killed is closed by Kill(), the chaos hook simulating abrupt
	// process death: senders and reconnect loops exit immediately, no
	// FIN, no bye.
	killOnce sync.Once
	killed   chan struct{}

	hbStop chan struct{} // stops the coordinator heartbeat loop
	hbDone chan struct{}

	sentWire    atomic.Int64 // data frames originated (monotonic)
	appliedWire atomic.Int64 // data frames fully applied (monotonic)
	epoch       atomic.Int64 // step barriers passed

	recv []*peerRecv // per-peer receive state (dedup seq + active conn)

	connsMu sync.Mutex
	conns   map[net.Conn]struct{} // live inbound connections

	quietMu      sync.Mutex
	quietCached  bool
	quietSent    int64
	quietApplied int64

	// hostDrain holds the runtime's fabric.HostDrainer hook (a
	// func() bool): it flushes host-side staged messages — AM handler
	// follow-ups parked in the aggregator — toward the wire and reports
	// whether host-side work remains. localIdle consults it so a
	// process polling the quiet protocol or the step barrier keeps
	// cascades flowing instead of letting them stall invisibly.
	hostDrain atomic.Value

	closed    atomic.Bool
	closeOnce sync.Once
	handlers  sync.WaitGroup
}

// NewTCP builds the transport: it binds opt.Listen (default
// "127.0.0.1:0"), discovers peers through the coordinator rendezvous
// (blocking until the whole cluster has joined), and starts the
// per-destination connection pools. Multi-node clusters require
// opt.Coord: the Quiet() quiescence guarantee the runtime's Step
// barrier relies on cannot be established from a static peers list
// alone, so a peers-only configuration is rejected rather than
// silently weakening the contract.
func NewTCP(params *timemodel.Params, clocks []*timemodel.Clocks, opt fabric.Options) (*TCP, error) {
	n := len(clocks)
	if n == 0 {
		return nil, fmt.Errorf("transport: no nodes")
	}
	if opt.Self < 0 || opt.Self >= n {
		return nil, fmt.Errorf("transport: self %d out of range [0,%d)", opt.Self, n)
	}
	if n > 1 && opt.Coord == "" {
		return nil, fmt.Errorf("transport: %d nodes but no coordinator: cross-process quiescence requires Options.Coord", n)
	}
	ep, err := fabric.NewEndpoint(n, func(node int) bool { return node == opt.Self }, opt.ResolverBanks, recvQueueFrames)
	if err != nil {
		return nil, err
	}
	listen := opt.Listen
	if listen == "" {
		listen = "127.0.0.1:0"
	}
	rawLn, err := net.Listen("tcp", listen)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", listen, err)
	}
	inj := fault.New(opt.Faults)
	var ln net.Listener = rawLn
	if inj.Enabled() {
		// Only the hosted node's blackout windows apply inbound; all
		// probabilistic faults ride outbound conns, where the link
		// identity is known before the first byte.
		ln = inj.WrapListener(rawLn, opt.Self)
	}
	suspect := opt.SuspectTimeout
	switch {
	case suspect < 0:
		suspect = 0 // detection disabled
	case suspect == 0:
		suspect = defaultSuspectTimeout
	}
	heartbeat := opt.HeartbeatInterval
	if heartbeat <= 0 {
		heartbeat = suspect / 4
	}
	t := &TCP{
		Metrics:   fabric.NewMetrics(n),
		Endpoint:  ep,
		params:    params,
		clocks:    clocks,
		n:         n,
		self:      opt.Self,
		wall:      opt.WallClock,
		gen:       opt.Generation,
		ln:        ln,
		inj:       inj,
		suspect:   suspect,
		heartbeat: heartbeat,
		recv:      make([]*peerRecv, n),
		conns:     make(map[net.Conn]struct{}),
		failedCh:  make(chan struct{}),
		killed:    make(chan struct{}),
	}
	for i := range t.recv {
		t.recv[i] = &peerRecv{}
	}

	peers := opt.Peers
	if opt.Coord != "" {
		coord, err := dialCoord(opt.Coord, coordDialOpts{
			timeout:    opt.CoordDialTimeout,
			backoff:    opt.CoordDialBackoff,
			backoffMax: opt.CoordDialBackoffMax,
			rpcTimeout: opt.CoordRPCTimeout,
		})
		if err != nil {
			ln.Close()
			return nil, err
		}
		coord.gen = opt.Generation
		t.coord = coord
		peers, err = coord.join(t.self, ln.Addr().String(), suspect)
		if err != nil {
			coord.close()
			ln.Close()
			return nil, err
		}
	}
	if n > 1 && len(peers) != n {
		if t.coord != nil {
			t.coord.close()
		}
		ln.Close()
		return nil, fmt.Errorf("transport: have %d peer addresses for %d nodes", len(peers), n)
	}

	t.senders = make([]*sender, n)
	for d := 0; d < n; d++ {
		if d == t.self {
			continue
		}
		s := &sender{
			t:     t,
			dest:  d,
			addr:  peers[d],
			queue: make(chan *frame, sendQueueFrames),
			stop:  make(chan struct{}),
			done:  make(chan struct{}),
		}
		s.lastAck.Store(time.Now().UnixNano())
		t.senders[d] = s
		go s.run()
	}
	go t.acceptLoop()
	if t.coord != nil && t.suspect > 0 {
		t.hbStop = make(chan struct{})
		t.hbDone = make(chan struct{})
		go t.heartbeatLoop()
	}
	return t, nil
}

// heartbeatLoop pings the coordinator every heartbeat interval: the
// ping keeps this worker's lastSeen fresh (so long compute phases are
// not mistaken for death) and brings back the coordinator's view of
// dead peers, failing the transport if any worker has gone silent.
func (t *TCP) heartbeatLoop() {
	defer close(t.hbDone)
	tick := time.NewTicker(t.heartbeat)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			if err := t.coord.ping(t.self, t.suspect); err != nil {
				t.fail(err)
				return
			}
		case <-t.hbStop:
			return
		case <-t.failedCh:
			return
		case <-t.killed:
			return
		}
	}
}

// fail records the first fatal transport error and unblocks everything
// waiting on delivery. After fail, Send discards (so aggregation
// goroutines finish their drains) and the collective entry points
// surface the error to the Step goroutine.
func (t *TCP) fail(err error) {
	t.failOnce.Do(func() {
		t.failErr = err
		close(t.failedCh)
	})
}

// Err returns the fatal transport error, nil while healthy. (Nil-safe
// on a zero-value TCP: a nil failedCh never selects.)
func (t *TCP) Err() error {
	select {
	case <-t.failedCh:
		return t.failErr
	default:
		return nil
	}
}

// FaultInjector returns the transport's fault injector (nil when fault
// injection is disabled) for diagnostics.
func (t *TCP) FaultInjector() *fault.Injector { return t.inj }

// Kill abruptly stops the transport as if the process died: the
// listener and every connection close, senders exit without FIN, the
// coordinator connection drops without a goodbye. A chaos-test hook;
// production shutdown is Close.
func (t *TCP) Kill() {
	t.killOnce.Do(func() {
		// Mark the transport failed too, so an in-process caller's Step
		// unwinds instead of spinning on a quiescence that can never
		// reconcile (a real dead process has no callers to unwind).
		t.fail(fmt.Errorf("transport: killed"))
		close(t.killed)
		t.ln.Close()
		if t.hbStop != nil {
			<-t.hbDone
		}
		for _, s := range t.senders {
			if s != nil {
				s.dropConn()
			}
		}
		t.connsMu.Lock()
		for c := range t.conns {
			c.Close()
		}
		t.connsMu.Unlock()
		if t.coord != nil {
			t.coord.close()
		}
	})
}

// Self returns the node this process hosts.
func (t *TCP) Self() int { return t.self }

// Addr returns the transport's listen address.
func (t *TCP) Addr() string { return t.ln.Addr().String() }

// Send implements fabric.Fabric.
func (t *TCP) Send(from, to int, buf []byte, msgs int) {
	t.send(from, to, buf, msgs, false)
}

// SendRouted implements fabric.Fabric.
func (t *TCP) SendRouted(from, gateway int, buf []byte, msgs int) {
	t.send(from, gateway, buf, msgs, true)
}

func (t *TCP) send(from, to int, buf []byte, msgs int, routed bool) {
	if from != t.self {
		panic(fmt.Sprintf("transport: node %d sending from the process hosting %d", from, t.self))
	}
	if to < 0 || to >= t.n {
		panic(fmt.Sprintf("transport: send to invalid node %d", to))
	}
	if to == t.self {
		// A self-send never becomes a frame: the endpoint alone counts
		// it, and sentWire/appliedWire never see it.
		t.SelfPkts[t.self].Inc()
		p := fabric.Packet{From: from, To: to, Buf: buf, Msgs: msgs, Routed: routed}
		if !t.Bypass(p) {
			t.Deliver(p)
		}
		return
	}
	if len(buf) > maxFramePayload {
		// Fail at the source: a frame the receiver would reject as
		// malformed must never enter the retransmit window, where it
		// would livelock the stream in a reconnect loop.
		panic(fmt.Sprintf("transport: %d-byte payload exceeds the %d-byte frame limit", len(buf), maxFramePayload))
	}
	t.ObserveWire(from, to, len(buf))
	t.clocks[from].CountPacket(len(buf))
	typ := frameData
	if routed {
		typ = frameRouted
	}
	f := getFrame()
	f.typ, f.from, f.to, f.msgs, f.payload = typ, from, to, msgs, buf
	f.gen = t.wireGen()
	t.sentWire.Add(1)
	if t.wall {
		t0 := time.Now()
		t.enqueue(to, f)
		t.clocks[from].AddWireSend(float64(time.Since(t0).Nanoseconds()))
	} else {
		t.clocks[from].AddWireSend(t.params.WireNs(len(buf)))
		t.enqueue(to, f)
	}
}

// enqueue stages a frame for a destination, blocking on backpressure.
// Once the transport has failed the frame is discarded instead: the
// aggregation goroutines calling Send must drain and park so the Step
// goroutine — not they — reports the typed error; delivery guarantees
// are void on a failed transport anyway.
func (t *TCP) enqueue(to int, f *frame) {
	select {
	case t.senders[to].queue <- f:
	case <-t.failedCh:
	case <-t.killed:
	}
}

// Done implements fabric.Fabric. It recycles the packet's buffer:
// self-packets still carry the sender's builder buffer, wire packets a
// pooled payload drawn by the frame reader.
func (t *TCP) Done(p fabric.Packet) {
	t.Endpoint.Done(p)
	if p.From != t.self && !p.Sub {
		// A whole packet that came off the wire is its frame. A demuxed
		// bank sub-packet is one of several carved from a single frame;
		// deliver counted that frame applied once at demux time.
		t.appliedWire.Add(1)
	}
}

// SetHostDrain implements fabric.HostDrainer.
func (t *TCP) SetHostDrain(f func() bool) { t.hostDrain.Store(f) }

// localIdle reports whether this process has nothing in flight: no
// host-side staged messages, no self-packets or received packets being
// applied, and every outbound stream drained and acknowledged. The
// drain hook runs first so a message it flushes is caught by the
// sender-idle check below, and so the sent/applied counters the
// callers report afterwards include it.
func (t *TCP) localIdle() bool {
	if f, ok := t.hostDrain.Load().(func() bool); ok {
		if !f() {
			return false
		}
	}
	if !t.Idle() {
		return false
	}
	for _, s := range t.senders {
		if s != nil && !s.idle() {
			return false
		}
	}
	return true
}

// quietSnapshot produces a consistent (sent, applied, idle) report for
// the coordinator's quiet protocol. Idleness and the counters must be
// observed at one instant: if a frame is applied — and its cascade
// follow-up staged and flushed — between the localIdle evaluation and
// the counter loads, the report would claim idle with counters that
// balance globally, and the cluster could release a barrier around the
// in-flight cascade. When the counters move during an idle observation
// the snapshot is retried.
func (t *TCP) quietSnapshot() (sent, applied int64, idle bool) {
	for {
		s0, a0 := t.sentWire.Load(), t.appliedWire.Load()
		idle = t.localIdle()
		sent, applied = t.sentWire.Load(), t.appliedWire.Load()
		if !idle || (sent == s0 && applied == a0) {
			return
		}
	}
}

// Quiet implements fabric.Fabric. Local activity is checked first;
// cluster-wide quiescence is then established through the coordinator
// and cached until the local counters move again.
func (t *TCP) Quiet() bool {
	if err := t.Err(); err != nil {
		// The transport has failed: counters can never reconcile again
		// (Send discards), so quiescence polling would spin forever.
		// Panicking the typed error here unwinds the Step goroutine,
		// where the node runtime recovers it into a diagnosed exit.
		panic(err)
	}
	sent, applied, idle := t.quietSnapshot()
	if !idle {
		return false
	}
	if t.n == 1 {
		return true
	}
	// n > 1 implies a coordinator: NewTCP rejects peers-only clusters.
	t.quietMu.Lock()
	defer t.quietMu.Unlock()
	if t.quietCached && sent == t.quietSent && applied == t.quietApplied {
		return true
	}
	quiet, err := t.coord.quiet(t.self, sent, applied, true, t.suspect)
	if err != nil {
		t.fail(err)
		panic(err)
	}
	// Only cache if the counters did not move while we asked.
	if quiet && sent == t.sentWire.Load() && applied == t.appliedWire.Load() {
		t.quietCached, t.quietSent, t.quietApplied = true, sent, applied
		return true
	}
	return false
}

// StepBarrier aligns step boundaries across the cluster (the runtime
// calls it after every Step's quiescence, via interface assertion).
// Each process polls the coordinator's epoch barrier, refreshing its
// counter report on every poll; the coordinator releases the barrier
// only when all processes have arrived at the same epoch at a globally
// quiescent instant. Without this, a fast process could read results
// or start the next step before a skewed peer's messages landed.
func (t *TCP) StepBarrier() {
	if t.coord == nil || t.n == 1 {
		return
	}
	key := fmt.Sprintf("step:%d", t.epoch.Add(1))
	for {
		if err := t.Err(); err != nil {
			panic(err)
		}
		sent, applied, idle := t.quietSnapshot()
		released, err := t.coord.barrier(t.self, key, sent, applied, idle, t.suspect)
		if err != nil {
			t.fail(err)
			panic(err)
		}
		if released {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// Reduce folds val into the named cluster-wide sum through the
// coordinator, blocking until every node has contributed. Without a
// coordinator it returns val.
func (t *TCP) Reduce(key string, val uint64) (uint64, error) {
	if t.coord == nil {
		return val, nil
	}
	if err := t.Err(); err != nil {
		return 0, err
	}
	total, err := t.coord.reduce(t.self, key, val, "", 0, t.suspect)
	if err != nil {
		t.fail(err)
		return 0, err
	}
	return total, nil
}

// Barrier blocks until every node has reached the named barrier.
func (t *TCP) Barrier(key string) error {
	_, err := t.Reduce("barrier:"+key, 0)
	return err
}

// Generation is the membership generation this transport was built
// with (0 when the cluster is not elastic).
func (t *TCP) Generation() uint32 { return t.gen }

// wireGen is the generation stamp for frame headers (the header has 16
// bits; the launcher's epoch counter never approaches that).
func (t *TCP) wireGen() uint16 { return uint16(t.gen) }

// SaveCheckpoint stores this process's shard of the step checkpoint at
// the coordinator's checkpoint store. Call it at a step barrier — a
// proven quiescent instant — so the assembled cluster checkpoint is
// consistent. A no-op without a coordinator.
func (t *TCP) SaveCheckpoint(step uint64, data []byte) error {
	if t.coord == nil {
		return nil
	}
	if err := t.Err(); err != nil {
		return err
	}
	if err := t.coord.saveCkpt(t.self, step, data, t.suspect); err != nil {
		t.fail(err)
		return err
	}
	if obs.Enabled() {
		obs.Emit(obs.KCheckpoint, t.self, int64(step), int64(len(data)), "")
	}
	return nil
}

// FetchCheckpoint retrieves the epoch's restore point from the
// coordinator; ok is false on a cold start (no complete checkpoint
// predates this epoch) or without a coordinator.
func (t *TCP) FetchCheckpoint() (rp *RestorePoint, ok bool, err error) {
	if t.coord == nil {
		return nil, false, nil
	}
	if err := t.Err(); err != nil {
		return nil, false, err
	}
	rp, ok, err = t.coord.fetchCkpt(t.self)
	if err != nil {
		t.fail(err)
		return nil, false, err
	}
	if ok && obs.Enabled() {
		obs.Emit(obs.KRestore, t.self, int64(rp.Step), int64(rp.Nodes), "")
	}
	return rp, ok, nil
}

// Close runs the drain/close handshake: every sender flushes its queue
// and window, FINs its stream, and awaits the FIN-ACK; inbound streams
// are given time to FIN symmetrically; then all inboxes close so the
// network threads exit, and the coordinator is told goodbye.
func (t *TCP) Close() {
	t.closeOnce.Do(func() {
		t.closed.Store(true)
		if t.hbStop != nil {
			close(t.hbStop)
			<-t.hbDone
		}
		var wg sync.WaitGroup
		for _, s := range t.senders {
			if s == nil {
				continue
			}
			wg.Add(1)
			go func(s *sender) {
				defer wg.Done()
				s.shutdown()
			}(s)
		}
		wg.Wait()
		t.ln.Close()

		// Peers close concurrently; give their FINs time to land, then
		// cut whatever is left.
		handlersDone := make(chan struct{})
		go func() { t.handlers.Wait(); close(handlersDone) }()
		select {
		case <-handlersDone:
		case <-time.After(drainTimeout):
			t.connsMu.Lock()
			for c := range t.conns {
				c.Close()
			}
			t.connsMu.Unlock()
			<-handlersDone
		}

		t.Endpoint.Close()
		if t.coord != nil {
			t.coord.bye(t.self)
			t.coord.close()
		}
	})
}

// DropConnections forcibly closes every established connection, inbound
// and outbound, without touching queued or unacknowledged frames — a
// fault-injection hook: senders must reconnect (with backoff) and
// retransmit, and no message may be lost or duplicated.
func (t *TCP) DropConnections() {
	for _, s := range t.senders {
		if s != nil {
			s.dropConn()
		}
	}
	t.connsMu.Lock()
	for c := range t.conns {
		c.Close()
	}
	t.connsMu.Unlock()
}

// peerRecv serializes the receive side of one peer. mu is held across
// the whole dedup-check / deliver / record sequence, and conn tracks
// the connection currently allowed to deliver: a reconnecting peer's
// new HELLO supersedes (closes) the old connection under mu, so two
// handlers for the same peer can never both pass the dedup test and
// enqueue one frame twice — even while the old handler drains frames
// still buffered in its reader.
type peerRecv struct {
	mu   sync.Mutex
	seq  uint64   // highest data seq handed to the inbox
	conn net.Conn // connection allowed to deliver for this peer
}

// acceptLoop admits peer connections until the listener closes.
func (t *TCP) acceptLoop() {
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return
		}
		t.connsMu.Lock()
		t.conns[conn] = struct{}{}
		t.connsMu.Unlock()
		t.handlers.Add(1)
		go t.serveConn(conn)
	}
}

// serveConn is the receive side of one peer stream: HELLO, then data
// frames — validated, deduplicated, delivered, acknowledged — until FIN
// or error. Any malformed frame poisons the connection; the peer
// reconnects and retransmits from the last acknowledged frame.
func (t *TCP) serveConn(conn net.Conn) {
	defer t.handlers.Done()
	defer func() {
		t.connsMu.Lock()
		delete(t.conns, conn)
		t.connsMu.Unlock()
		conn.Close()
	}()
	br := bufio.NewReaderSize(conn, 64<<10)

	conn.SetReadDeadline(time.Now().Add(handshakeTimeout))
	hello, err := readFrame(br)
	if err != nil || hello.typ != frameHello || hello.to != t.self ||
		hello.from < 0 || hello.from >= t.n || hello.from == t.self {
		t.Malformed.Inc()
		return
	}
	// Generation gate: a hello stamped with another membership
	// generation is from an evicted (or not-yet-evicted stale) peer.
	// Reply frameEvict carrying our generation so the sender fails with
	// a typed StaleGenerationError instead of retrying forever, and
	// never let its frames near the dedup/deliver path. Unstamped
	// hellos (gen 0 on either side) pass: fixed-membership clusters
	// never stamp.
	if hello.gen != t.wireGen() && hello.gen != 0 && t.gen != 0 {
		writeFrame(conn, &frame{typ: frameEvict, from: t.self, to: hello.from, seq: uint64(t.gen), gen: t.wireGen()})
		return
	}
	conn.SetReadDeadline(time.Time{})
	from := hello.from
	peerGen := hello.gen
	pr := t.recv[from]
	// Supersede any previous connection from this peer before acking
	// the resume point: the old handler may still be draining frames
	// buffered in its reader, and the retransmitted window must not be
	// able to race it past the dedup check.
	pr.mu.Lock()
	if pr.conn != nil {
		pr.conn.Close()
	}
	pr.conn = conn
	resume := pr.seq
	pr.mu.Unlock()
	defer func() {
		pr.mu.Lock()
		if pr.conn == conn {
			pr.conn = nil
		}
		pr.mu.Unlock()
	}()
	// Control replies (acks, fin-ack) reuse one encode scratch instead
	// of allocating per frame; one goroutine owns this connection's
	// writes, so no lock is needed.
	var ctlBuf []byte
	writeCtl := func(typ frameType, seq uint64) error {
		ctlBuf = appendFrame(ctlBuf[:0], &frame{typ: typ, from: t.self, to: from, seq: seq})
		_, err := conn.Write(ctlBuf)
		return err
	}
	if err := writeCtl(frameAck, resume); err != nil {
		return
	}

	// The frame struct is reused across reads; its payload is a fresh
	// pooled buffer per data frame, owned by the inbox packet once
	// delivered (Done recycles it) and recycled here on the drop paths
	// that keep the connection alive.
	var f frame
	for {
		if err := readFrameInto(br, &f); err != nil {
			if errors.Is(err, errCorruptPayload) {
				// In-flight corruption, caught by the frame CRC. Count it,
				// re-acknowledge the resume point as an explicit retransmit
				// request, and poison the connection: the sender reconnects
				// and replays everything after the ack, so corruption costs
				// a round trip, never data.
				t.CorruptFrames.Inc()
				pr.mu.Lock()
				resume := pr.seq
				pr.mu.Unlock()
				writeCtl(frameAck, resume)
			}
			return
		}
		switch f.typ {
		case frameFin:
			writeCtl(frameFinAck, 0)
			return
		case framePing:
			// Peer heartbeat: answer with the cumulative ack so liveness
			// and ack progress share one signal.
			pr.mu.Lock()
			cum := pr.seq
			pr.mu.Unlock()
			if writeCtl(frameAck, cum) != nil {
				return
			}
		case frameData, frameRouted:
			routed := f.typ == frameRouted
			pr.mu.Lock()
			if pr.conn != conn {
				// Superseded by a reconnect while this frame sat in the
				// reader; the new stream retransmits everything unacked.
				pr.mu.Unlock()
				return
			}
			last := pr.seq
			switch {
			case f.from != from || f.to != t.self,
				f.gen != peerGen, // generation drift mid-stream: reject, not misdeliver
				f.seq > last+1,   // gap: protocol violation
				wire.CheckBuf(f.payload, routed, t.n) != nil:
				pr.mu.Unlock()
				t.Malformed.Inc()
				return
			case f.seq <= last:
				// Duplicate after a reconnect: re-acknowledge, drop (and
				// recycle the payload nothing will ever apply).
				pr.mu.Unlock()
				wire.PutBuf(f.payload)
				f.payload = nil
				if writeCtl(frameAck, f.seq) != nil {
					return
				}
				continue
			}
			ok := t.deliver(&f, routed)
			if ok {
				pr.seq = f.seq
			}
			pr.mu.Unlock()
			if !ok {
				return
			}
			if writeCtl(frameAck, f.seq) != nil {
				return
			}
		default:
			t.Malformed.Inc()
			return
		}
	}
}

// deliver hands one validated data frame to the endpoint, charging
// receive-side wire time. Counter order matters when the endpoint
// demuxes it: the endpoint's in-flight count covers every sub-packet
// before appliedWire counts the frame applied, so the coordinator's
// sent/applied comparison can never balance while a sub-packet is still
// pending, and each sub-packet's Done retires it from the endpoint only
// (see Done). It reports false if the inboxes closed underneath it
// during shutdown: the frame is unacked, so a surviving peer would
// retransmit — by protocol it is post-quiescence and carries nothing
// the run still needs.
func (t *TCP) deliver(f *frame, routed bool) bool {
	p := fabric.Packet{From: f.from, To: t.self, Buf: f.payload, Msgs: f.msgs, Routed: routed}
	var scattered, ok bool
	if t.wall {
		t0 := time.Now()
		scattered, ok = t.Deliver(p)
		t.clocks[t.self].AddWireRecv(float64(time.Since(t0).Nanoseconds()))
	} else {
		t.clocks[t.self].AddWireRecv(t.params.WireNs(len(f.payload)))
		scattered, ok = t.Deliver(p)
	}
	if scattered {
		t.appliedWire.Add(1)
	}
	return ok
}

var _ fabric.Fabric = (*TCP)(nil)
