package transport

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"time"
)

// Coordinator is the rendezvous point of a multi-process cluster: it
// assigns nothing and moves no data, but keeps membership: peer
// discovery (join), cluster-wide failure detection (workers heartbeat;
// a worker silent past the suspect timeout is reported Down to every
// op), checkpoints and rescale. Agreement is not here: the step vote
// and host collectives ride the peer streams (vote.go, collectives.go).
//
// Every operation is a prompt request/response — workers poll join
// instead of blocking in the server — so every worker RPC can carry a
// deadline and a vanished coordinator always surfaces as a typed
// CoordDownError within that deadline, never as a hang.
//
// Membership is epoch-based: the coordinator stamps every epoch with a
// generation (starting at 1) and every worker RPC carries its
// generation; a join stamped 0 asks for the current one and is answered
// with it. A worker from a dead epoch — one the launcher has moved
// past with BeginEpoch — gets a typed stale-generation rejection
// instead of silently polluting the new epoch's membership. The
// coordinator also doubles as the cluster's checkpoint store: workers
// save per-shard state at step barriers ("ckpt") and a relaunched
// epoch fetches the latest complete restore point ("restore").
type Coordinator struct {
	nodes int

	// SuspectTimeout, when positive, declares a joined worker down
	// after that much silence (workers heartbeat at a fraction of it).
	// Joiners report their own configured timeouts and the coordinator
	// adopts the largest it has seen, so setting it here is optional.
	SuspectTimeout time.Duration

	mu sync.Mutex

	gen       uint32
	peers     map[int]string
	firstJoin time.Time
	lastSeen  map[int]time.Time
	left      map[int]bool

	done     chan struct{}
	doneOnce sync.Once // every epoch can end with everyone gone; done closes once

	// ckpts accumulates the running epoch's per-step checkpoints;
	// restore is the point frozen at the last BeginEpoch (the newest
	// checkpoint every current-epoch shard had saved). pendingRescale,
	// when nonzero, is a planned membership change: op responses carry
	// it so every worker unwinds with a typed RescaleError at its next
	// heartbeat or checkpoint.
	ckpts          map[uint64]*ckptState
	restore        *RestorePoint
	pendingRescale int

	conns map[net.Conn]struct{} // live worker connections (for Kill)
}

// ckptState is one step's checkpoint being assembled: complete once
// every node of the saving epoch has stored its shard.
type ckptState struct {
	nodes  int
	shards map[int][]byte
}

// RestorePoint is a complete cluster checkpoint: every shard of one
// epoch, at one step barrier. Shards are indexed by the saving epoch's
// node ids — a restoring epoch with a different node count replays all
// of them (shard payloads are keyed by global indices).
type RestorePoint struct {
	Step   uint64
	Nodes  int
	Shards [][]byte
}

// coordMsg is both request and response of the line-oriented JSON
// protocol workers speak to the coordinator.
type coordMsg struct {
	Op      string   `json:"op,omitempty"`
	Node    int      `json:"node"`
	Gen     uint32   `json:"gen,omitempty"` // request: sender's generation (0 only on a first join); join reply: the coordinator's
	Addr    string   `json:"addr,omitempty"`
	Step    uint64   `json:"step,omitempty"`    // checkpoint step ("ckpt"/"restore")
	Data    []byte   `json:"data,omitempty"`    // checkpoint shard payload
	Suspect int64    `json:"suspect,omitempty"` // joiner's suspect timeout, ns
	OK      bool     `json:"ok"`
	Err     string   `json:"err,omitempty"`
	Stale   uint32   `json:"stale,omitempty"`   // rejection: coordinator's newer generation
	Rescale int      `json:"rescale,omitempty"` // planned next-epoch node count
	RGen    uint32   `json:"rgen,omitempty"`    // generation the rescaled epoch will get
	Ready   bool     `json:"ready,omitempty"`   // join: the cluster assembled; restore: a point exists
	Nodes   int      `json:"nodes,omitempty"`   // restore point's saving node count
	Shards  [][]byte `json:"shards,omitempty"`  // restore point's per-node payloads
	Peers   []string `json:"peers,omitempty"`
	Down    []int    `json:"down,omitempty"` // workers silent past the suspect timeout
}

// NewCoordinator creates a coordinator expecting the given worker
// count, at generation 1.
func NewCoordinator(nodes int) *Coordinator {
	c := &Coordinator{done: make(chan struct{}), conns: make(map[net.Conn]struct{})}
	c.BeginEpoch(nodes)
	return c
}

// Done is closed the first time every worker of an epoch has said
// goodbye, and stays closed through later epochs.
func (c *Coordinator) Done() <-chan struct{} { return c.done }

// Generation is the current epoch's generation stamp.
func (c *Coordinator) Generation() uint32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gen
}

// BeginEpoch moves the cluster to a fresh epoch with the given worker
// count: the generation bumps, membership resets, any pending rescale
// signal clears, and the restore point freezes at the newest complete
// checkpoint. Workers of the dead epoch that are still talking get
// stale-generation rejections from here on. Returns the new generation.
func (c *Coordinator) BeginEpoch(nodes int) uint32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if rp := c.latestCompleteLocked(); rp != nil {
		c.restore = rp
	}
	c.ckpts = make(map[uint64]*ckptState)
	c.gen++
	c.nodes = nodes
	c.peers = make(map[int]string)
	c.firstJoin = time.Time{}
	c.lastSeen = make(map[int]time.Time)
	c.left = make(map[int]bool)
	c.pendingRescale = 0
	return c.gen
}

// Rescale schedules a planned membership change to the given node
// count: every worker's next heartbeat or checkpoint reply carries the
// signal and unwinds it with a typed RescaleError, after which the
// launcher calls BeginEpoch(nodes) and relaunches from the restore
// point. Returns the generation the rescaled epoch will be given.
func (c *Coordinator) Rescale(nodes int) uint32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pendingRescale = nodes
	return c.gen + 1
}

// latestCompleteLocked picks the newest step for which every node of
// the saving epoch stored a shard; falls back to nil (caller keeps the
// previous restore point) when the dead epoch never completed one.
func (c *Coordinator) latestCompleteLocked() *RestorePoint {
	best := uint64(0)
	var bestSt *ckptState
	for step, st := range c.ckpts {
		if len(st.shards) == st.nodes && (bestSt == nil || step > best) {
			best, bestSt = step, st
		}
	}
	if bestSt == nil {
		return nil
	}
	rp := &RestorePoint{Step: best, Nodes: bestSt.nodes, Shards: make([][]byte, bestSt.nodes)}
	for i := 0; i < bestSt.nodes; i++ {
		rp.Shards[i] = bestSt.shards[i]
	}
	return rp
}

// Serve accepts worker connections until the listener closes. Call
// `ln.Close()` after Done() fires (or on error) to end it.
func (c *Coordinator) Serve(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		c.mu.Lock()
		c.conns[conn] = struct{}{}
		c.mu.Unlock()
		go c.handle(conn)
	}
}

// Kill abruptly severs every worker connection — the chaos harness's
// "coordinator process died" lever. Workers' next RPC fails and must
// surface as a CoordDownError.
func (c *Coordinator) Kill() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for conn := range c.conns {
		conn.Close()
	}
}

func (c *Coordinator) handle(conn net.Conn) {
	defer func() {
		c.mu.Lock()
		delete(c.conns, conn)
		c.mu.Unlock()
		conn.Close()
	}()
	dec := json.NewDecoder(bufio.NewReader(conn))
	enc := json.NewEncoder(conn)
	for {
		var req coordMsg
		if err := dec.Decode(&req); err != nil {
			return
		}
		resp := c.dispatch(&req)
		if err := enc.Encode(resp); err != nil {
			return
		}
		if req.Op == "bye" {
			return
		}
	}
}

func (c *Coordinator) dispatch(req *coordMsg) *coordMsg {
	c.mu.Lock()
	defer c.mu.Unlock()
	// Generation gate: an op stamped with another epoch's generation is
	// rejected before it can touch membership or checkpoint state (a
	// stale worker must not refresh a new-epoch node's liveness or
	// pollute its checkpoints). Only a join may come unstamped: its reply
	// tells the worker which generation it joined.
	if req.Gen != c.gen && !(req.Op == "join" && req.Gen == 0) {
		return &coordMsg{Stale: c.gen}
	}
	if req.Node < 0 || req.Node >= c.nodes {
		return &coordMsg{Err: fmt.Sprintf("node %d out of range [0,%d)", req.Node, c.nodes)}
	}
	c.lastSeen[req.Node] = time.Now()
	switch req.Op {
	case "join":
		peers, ready, err := c.joinLocked(req.Node, req.Addr, time.Duration(req.Suspect))
		if err != nil {
			return &coordMsg{Err: err.Error()}
		}
		return &coordMsg{OK: true, Ready: ready, Peers: peers, Gen: c.gen}
	case "ping":
		return c.annotateLocked(&coordMsg{OK: true, Down: c.downLocked()})
	case "ckpt":
		c.ckptLocked(req.Node, req.Step, req.Data)
		return c.annotateLocked(&coordMsg{OK: true, Down: c.downLocked()})
	case "restore":
		if c.restore == nil {
			return &coordMsg{OK: true}
		}
		return &coordMsg{OK: true, Ready: true, Step: c.restore.Step, Nodes: c.restore.Nodes, Shards: c.restore.Shards}
	case "bye":
		c.byeLocked(req.Node)
		return &coordMsg{OK: true}
	default:
		return &coordMsg{Err: fmt.Sprintf("unknown op %q", req.Op)}
	}
}

// annotateLocked stamps a pending planned rescale onto an op response,
// so every worker learns about the membership change at its next
// heartbeat or checkpoint and unwinds cooperatively.
func (c *Coordinator) annotateLocked(resp *coordMsg) *coordMsg {
	if c.pendingRescale != 0 {
		resp.Rescale = c.pendingRescale
		resp.RGen = c.gen + 1
	}
	return resp
}

// ckptLocked stores one shard of the named step's checkpoint. The
// shard payload is opaque to the coordinator; a step's checkpoint is
// complete (restorable) once every node of the saving epoch has
// stored, and only the newest complete step survives an epoch change.
func (c *Coordinator) ckptLocked(node int, step uint64, data []byte) {
	st := c.ckpts[step]
	if st == nil {
		st = &ckptState{nodes: c.nodes, shards: make(map[int][]byte)}
		c.ckpts[step] = st
	}
	if _, dup := st.shards[node]; dup {
		return // idempotent: a retried save keeps the first copy
	}
	st.shards[node] = append([]byte(nil), data...)
	if len(st.shards) == st.nodes {
		// A newly complete step supersedes older checkpoints; dropping
		// them bounds the store for long runs.
		for s := range c.ckpts {
			if s < step && len(c.ckpts[s].shards) == c.ckpts[s].nodes {
				delete(c.ckpts, s)
			}
		}
	}
}

// joinLocked registers a worker's listen address; once the whole
// cluster has registered it reports ready with the address table
// indexed by node. Workers poll until ready.
func (c *Coordinator) joinLocked(node int, addr string, suspect time.Duration) ([]string, bool, error) {
	if prev, dup := c.peers[node]; dup && addr != "" && prev != addr {
		return nil, false, fmt.Errorf("node %d joined twice (%s, %s)", node, prev, addr)
	}
	if c.firstJoin.IsZero() {
		c.firstJoin = time.Now()
	}
	if addr != "" {
		c.peers[node] = addr
	}
	if suspect > c.SuspectTimeout {
		c.SuspectTimeout = suspect
	}
	if len(c.peers) < c.nodes {
		// Assembly can legitimately be slow, but with failure detection
		// on it must not wait forever on a worker that died before
		// joining: past a generous grace the join itself fails, so every
		// surviving worker gets a diagnosed exit instead of a hang.
		if c.SuspectTimeout > 0 {
			grace := 4 * c.SuspectTimeout
			if grace < 5*time.Second {
				grace = 5 * time.Second
			}
			if time.Since(c.firstJoin) > grace {
				return nil, false, fmt.Errorf("cluster failed to assemble: %d/%d workers joined within %v",
					len(c.peers), c.nodes, grace)
			}
		}
		return nil, false, nil
	}
	out := make([]string, c.nodes)
	for i, a := range c.peers {
		out[i] = a
	}
	return out, true, nil
}

// downLocked lists joined workers that have been silent past the
// suspect timeout — the coordinator-side half of failure detection.
// Heartbeats (op "ping") keep a live worker's lastSeen fresh even while
// it computes, so staleness really means the process is gone or
// unreachable. Workers that said goodbye are not dead, just done.
func (c *Coordinator) downLocked() []int {
	if c.SuspectTimeout <= 0 || len(c.peers) < c.nodes {
		return nil
	}
	now := time.Now()
	var down []int
	for i := 0; i < c.nodes; i++ {
		if c.left[i] {
			continue
		}
		seen, ok := c.lastSeen[i]
		if ok && now.Sub(seen) > c.SuspectTimeout {
			down = append(down, i)
		}
	}
	return down
}

func (c *Coordinator) byeLocked(node int) {
	if c.left[node] {
		return
	}
	c.left[node] = true
	if len(c.left) == c.nodes {
		c.doneOnce.Do(func() { close(c.done) })
	}
}
