package transport

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"time"

	"gravel/internal/fabric"
	"gravel/internal/obs"
)

// coordClient is a worker's connection to the coordinator: serialized
// request/response exchanges, each bounded by the RPC deadline. What a
// reply or a failure means is TCP.exchange's business.
type coordClient struct {
	addr       string
	rpcTimeout time.Duration // per-exchange deadline; negative = none

	mu   sync.Mutex
	conn net.Conn
	dec  *json.Decoder
	enc  *json.Encoder
}

// dialCoord connects with retries: workers routinely start before the
// coordinator is listening, on the transport's one backoff schedule.
// The dial budget and the RPC deadline come from opt's Coord* fields
// (zero: 30s to connect, 15s per exchange).
func dialCoord(opt fabric.Options) (*coordClient, error) {
	c := &coordClient{addr: opt.Coord, rpcTimeout: opt.CoordRPCTimeout}
	if c.rpcTimeout == 0 {
		c.rpcTimeout = 15 * time.Second
	}
	timeout := opt.CoordDialTimeout
	if timeout == 0 {
		timeout = 30 * time.Second
	}
	deadline := time.Now().Add(timeout)
	var err error
	redial(backoffInitial, backoffMax, func() bool {
		c.conn, err = net.Dial("tcp", c.addr)
		return err == nil || time.Now().After(deadline)
	}, func(d time.Duration) bool {
		time.Sleep(d)
		return false
	})
	if err != nil {
		return nil, &CoordDownError{Addr: c.addr, Cause: fmt.Errorf("unreachable after %v: %w", timeout, err)}
	}
	c.dec = json.NewDecoder(bufio.NewReader(c.conn))
	c.enc = json.NewEncoder(c.conn)
	return c, nil
}

// roundTrip sends req and reads the reply.
func (c *coordClient) roundTrip(req *coordMsg) (*coordMsg, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.rpcTimeout > 0 {
		c.conn.SetDeadline(time.Now().Add(c.rpcTimeout))
	}
	if err := c.enc.Encode(req); err != nil {
		return nil, fmt.Errorf("request: %w", err)
	}
	var resp coordMsg
	if err := c.dec.Decode(&resp); err != nil {
		return nil, fmt.Errorf("response: %w", err)
	}
	if c.rpcTimeout > 0 {
		c.conn.SetDeadline(time.Time{})
	}
	return &resp, nil
}

func (c *coordClient) close() { c.conn.Close() }

// exchange is the funnel every coordinator exchange goes through: it
// stamps the request with this worker's node and generation, and it is
// the one place a membership failure becomes a typed error and fails
// the transport:
//
//	no coordinator (standalone worker)  nil reply, nil error
//	transport already failed            that error, nothing sent
//	I/O error or RPC deadline           *CoordDownError
//	reply.Stale                         *StaleGenerationError (Source "coordinator")
//	reply.Err                           the coordinator's message
//	reply.Rescale                       *RescaleError
//	reply.Down                          *PeerDownError (Detector "coordinator")
//
// A planned rescale outranks a down peer: unwinding cooperatively is
// the point, whether or not a peer also died. Any down peer dooms the
// run; the first is reported.
func (t *TCP) exchange(req *coordMsg) (*coordMsg, error) {
	if t.coord == nil {
		return nil, nil
	}
	if err := t.Err(); err != nil {
		return nil, err
	}
	req.Node, req.Gen = t.self, t.gen
	resp, err := t.coord.roundTrip(req)
	switch {
	case err != nil:
		err = &CoordDownError{Addr: t.coord.addr, Cause: err}
	case resp.Stale != 0:
		err = &StaleGenerationError{Have: t.gen, Want: resp.Stale, Source: "coordinator"}
	case resp.Err != "":
		err = fmt.Errorf("transport: coordinator: %s", resp.Err)
	case resp.Rescale != 0:
		err = &RescaleError{Nodes: resp.Rescale, Gen: resp.RGen}
	case len(resp.Down) > 0:
		err = &PeerDownError{Node: resp.Down[0], Detector: "coordinator", Silence: t.suspect}
	default:
		return resp, nil
	}
	t.fail(err)
	return nil, err
}

// join registers this worker's listen address and polls until the whole
// cluster has assembled, returning the address table. It polls instead
// of blocking in the server so that every exchange carries a deadline.
// Assembly can legitimately take as long as the slowest worker's start,
// so only coordinator failure — not elapsed time — aborts the wait. A
// transport built without a generation joins unstamped and adopts the
// coordinator's; every later exchange and every frame carries it.
func (t *TCP) join() ([]string, error) {
	req := &coordMsg{Op: "join", Addr: t.Addr(), Suspect: int64(t.suspect)}
	resp, err := t.exchange(req)
	for ; err == nil && !resp.Ready; resp, err = t.exchange(req) {
		time.Sleep(5 * time.Millisecond)
	}
	if err != nil {
		return nil, err
	}
	if len(resp.Peers) != t.n {
		return nil, fmt.Errorf("transport: coordinator listed %d peer addresses for %d nodes", len(resp.Peers), t.n)
	}
	if t.gen == 0 {
		t.gen = resp.Gen
	}
	return resp.Peers, nil
}

// heartbeatLoop pings the coordinator every heartbeat interval: the
// ping keeps this worker's lastSeen fresh (so long compute phases are
// not mistaken for death) and brings back the coordinator's view of
// dead peers, failing the transport if any worker has gone silent. It
// is how a voter or a collective parked on its peers learns that the
// coordinator died or that a rescale is planned.
func (t *TCP) heartbeatLoop() {
	defer close(t.hbDone)
	tick := time.NewTicker(t.heartbeat)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			if _, err := t.exchange(&coordMsg{Op: "ping"}); err != nil {
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

// SaveCheckpoint stores this process's shard of the step checkpoint at
// the coordinator's checkpoint store. Call it at a step barrier — a
// proven quiescent instant — so the assembled cluster checkpoint is
// consistent. A no-op without a coordinator.
func (t *TCP) SaveCheckpoint(step uint64, data []byte) error {
	resp, err := t.exchange(&coordMsg{Op: "ckpt", Step: step, Data: data})
	if resp != nil && obs.Enabled() {
		obs.Emit(obs.KCheckpoint, t.self, int64(step), int64(len(data)), "")
	}
	return err
}

// FetchCheckpoint retrieves the epoch's restore point from the
// coordinator; ok is false on a cold start (no complete checkpoint
// predates this epoch) or without a coordinator.
func (t *TCP) FetchCheckpoint() (rp *RestorePoint, ok bool, err error) {
	resp, err := t.exchange(&coordMsg{Op: "restore"})
	if err != nil || resp == nil || !resp.Ready {
		return nil, false, err
	}
	if obs.Enabled() {
		obs.Emit(obs.KRestore, t.self, int64(resp.Step), int64(resp.Nodes), "")
	}
	return &RestorePoint{Step: resp.Step, Nodes: resp.Nodes, Shards: resp.Shards}, true, nil
}
