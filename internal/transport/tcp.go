package transport

import (
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"gravel/internal/fabric"
	"gravel/internal/timemodel"
	"gravel/internal/transport/fault"
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
	// the window (sendStream.stalled).
	rexmitInterval = 100 * time.Millisecond

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
// It is cut along three seams. Reliability (stream.go): each
// sender→destination stream numbers its data frames, the receiver
// acknowledges cumulatively and deduplicates, and the sender replays a
// bounded window of unacknowledged frames after reconnecting, so a
// dropped connection delays but never loses or duplicates messages.
// Connection lifecycle (tcp_sender.go, tcp_recv.go): sender.run and
// serveConn are the only code that touches a peer net.Conn.
// Membership (coord_client.go): every coordinator exchange — join,
// checkpoints, heartbeats — goes through TCP.exchange, which owns the
// failure rule. Cross-process agreement needs no coordinator: quiet and
// the step barrier are the step vote (vote.go) and host collectives
// are contributions (collectives.go), both carried on the peer streams.
//
// Timing: the virtual LogGP model is charged sender-side and
// receiver-side as in the in-process fabrics.
type TCP struct {
	*fabric.Metrics
	// The hosted node's inboxes: self-sends and received frames.
	*fabric.Endpoint

	params *timemodel.Params
	clocks []*timemodel.Clocks
	n      int
	self   int
	gen    uint32 // membership generation: Options.Generation, or adopted at join

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
	// collective entry points (Quiet, StepBarrier, AllReduce) surface
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

	// arrived counts the records the hosted node's endpoint took in:
	// while it is ahead of consumed, a resolver still has work, and a
	// ballot would only cost a round.
	arrived atomic.Int64

	recv []recvStream // per-peer receive half (dedup seq + live conn)

	connsMu sync.Mutex
	conns   map[net.Conn]struct{} // live inbound connections

	// The step vote (vote.go); quietMu lets one voter at a time snapshot
	// and step it.
	quietMu sync.Mutex
	tally   tally

	colls colls // the open host collectives (collectives.go)

	// staged is the runtime's staged read (SetStaged), which every
	// ballot runs so a process waiting on the step vote keeps AM
	// cascades flowing; nil when no runtime stages on this transport.
	staged func() bool

	closed    atomic.Bool
	closeOnce sync.Once
	handlers  sync.WaitGroup
}

// NewTCP builds the transport: it binds opt.Listen (default
// "127.0.0.1:0"), discovers peers through the coordinator rendezvous
// (blocking until the whole cluster has joined), and starts the
// per-destination connection pools. Multi-node clusters require
// opt.Coord, where the peers find each other.
func NewTCP(params *timemodel.Params, clocks []*timemodel.Clocks, opt fabric.Options) (*TCP, error) {
	n := len(clocks)
	if n == 0 {
		return nil, fmt.Errorf("transport: no nodes")
	}
	if opt.Self < 0 || opt.Self >= n {
		return nil, fmt.Errorf("transport: self %d out of range [0,%d)", opt.Self, n)
	}
	if n > 1 && opt.Coord == "" {
		return nil, fmt.Errorf("transport: %d nodes but no coordinator: peer discovery requires Options.Coord", n)
	}
	ep, err := fabric.NewEndpoint(clocks, func(node int) bool { return node == opt.Self }, opt.ResolverBanks, recvQueueFrames)
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
		gen:       opt.Generation,
		ln:        ln,
		inj:       inj,
		suspect:   suspect,
		heartbeat: heartbeat,
		recv:      make([]recvStream, n),
		conns:     make(map[net.Conn]struct{}),
		tally:     tally{self: opt.Self, box: make([]ballots, n)},
		colls:     colls{open: make(map[[2]uint64]*openColl), issued: make(map[uint64]uint64)},
		failedCh:  make(chan struct{}),
		killed:    make(chan struct{}),
	}

	var peers []string
	if opt.Coord != "" {
		if t.coord, err = dialCoord(opt); err != nil {
			ln.Close()
			return nil, err
		}
		if peers, err = t.join(); err != nil {
			t.coord.close()
			ln.Close()
			return nil, err
		}
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

// fail records the first fatal transport error and unblocks everything
// waiting on delivery. After fail, Send discards (so aggregation
// goroutines finish their drains) and the collective entry points
// surface the error to the Step goroutine.
func (t *TCP) fail(err error) {
	t.failOnce.Do(func() {
		t.failErr = err
		close(t.failedCh)
		t.Progress().Wake() // a parked voter runs the vote again, which panics err
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
		t.DropConnections()
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
	if from != t.self {
		panic(fmt.Sprintf("transport: node %d sending from the process hosting %d", from, t.self))
	}
	if to < 0 || to >= t.n {
		panic(fmt.Sprintf("transport: send to invalid node %d", to))
	}
	t.clocks[from].CountDeparted(fabric.Records(msgs))
	if to == t.self {
		// A self-send never becomes a frame: the bypass applies it here,
		// or the endpoint takes it straight to an inbox.
		t.clocks[from].CountSelfPacket()
		t.arrived.Add(int64(fabric.Records(msgs)))
		p := fabric.Packet{From: from, To: to, Buf: buf, Msgs: msgs}
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
	t.ObserveWire(t.clocks[from], from, to, len(buf))
	f := getFrame()
	f.typ, f.from, f.to, f.msgs, f.payload = frameData, from, to, msgs, buf
	f.gen = t.wireGen()
	t.clocks[from].AddWireSend(t.params.WireNs(len(buf)))
	t.enqueue(to, f)
}

// enqueue stages a frame for a destination, blocking on backpressure;
// the frame is owed until acknowledged unless it is a ballot. Once the
// transport has failed the frame is discarded instead: the aggregation
// goroutines calling Send must drain and park so the Step goroutine —
// not they — reports the typed error; delivery guarantees are void on
// a failed transport anyway.
func (t *TCP) enqueue(to int, f *frame) {
	if f.typ != frameVote {
		t.senders[to].owed.Add(1)
	}
	select {
	case t.senders[to].queue <- f:
	case <-t.failedCh:
	case <-t.killed:
	}
}

// SetStaged implements fabric.Distributed.
func (t *TCP) SetStaged(staged func() bool) { t.staged = staged }

// observe takes this process's ballot for the step vote: Observe over
// the hosted node's ledger, whose staged read is the runtime's and then
// every outbound stream drained and acknowledged. Records that have
// arrived but are not consumed yet keep the process busy.
func (t *TCP) observe() (departed, consumed int64, idle bool) {
	departed, consumed, idle = fabric.Observe(t.clocks[t.self:t.self+1], t.unsent)
	return departed, consumed, idle && t.arrived.Load() == consumed
}

// unsent is the ballot's staged read.
func (t *TCP) unsent() bool {
	staged := t.staged != nil && t.staged()
	for _, s := range t.senders {
		staged = staged || s != nil && !s.idle()
	}
	return staged
}

// Quiet implements fabric.Fabric: whether the open step vote has
// released (vote.go), casting this process's ballot when it is locally
// idle. It never waits on a peer.
func (t *TCP) Quiet() bool { return t.vote(false) }

// Generation is the membership generation this transport stamps: the
// one it was built with, or the coordinator's at the time it joined.
func (t *TCP) Generation() uint32 { return t.gen }

// wireGen is the generation stamp for frame headers (the header has 16
// bits; the launcher's epoch counter never approaches that).
func (t *TCP) wireGen() uint16 { return uint16(t.gen) }

// Close runs the drain/close handshake: every sender drains its queue
// and window, FINs its stream, and awaits the FIN-ACK; inbound streams
// are given time to FIN symmetrically; then all inboxes close so the
// network threads exit, and the coordinator is told goodbye.
//
// A failed transport cuts instead of draining: Send has been discarding
// since fail, so no handshake could deliver anything the run still
// needs, and peers that failed with it are not closing in step — each
// would be waited on for the whole drainTimeout.
func (t *TCP) Close() {
	t.closeOnce.Do(func() {
		t.closed.Store(true)
		if t.Err() != nil {
			t.Kill()
			for _, s := range t.senders {
				if s != nil {
					<-s.done
				}
			}
			t.handlers.Wait()
			t.Endpoint.Close()
			return
		}
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
			t.DropConnections()
			<-handlersDone
		}

		t.Endpoint.Close()
		if t.coord != nil {
			t.exchange(&coordMsg{Op: "bye"}) // best effort: the run is over either way
			t.coord.close()
		}
	})
}

// DropConnections forcibly closes every established connection, inbound
// and outbound, without touching queued or unacknowledged frames: live
// senders reconnect (with backoff) and retransmit, and no message may
// be lost or duplicated. A fault-injection hook, and the one
// close-every-conn loop Kill and Close's drain timeout share.
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

var (
	_ fabric.Fabric      = (*TCP)(nil)
	_ fabric.Distributed = (*TCP)(nil)
)
