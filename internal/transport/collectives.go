package transport

import (
	"fmt"
	"time"

	"gravel/internal/obs"
	"gravel/internal/rt"
)

// tcpCollectives adapts the coordinator's polled reduction protocol to
// the rt.Collectives surface. Every collective is encoded as one
// coordinator reduction whose key carries the team tag (empty for the
// world team) and whose required contribution count is the team size,
// so non-members neither block the collective nor are blocked by it.
type tcpCollectives struct {
	t *TCP
}

// Collectives returns the transport's host-side collective surface,
// bound to this process's node. Without a coordinator (a standalone
// worker) the collectives degrade to the single-process identity.
func (t *TCP) Collectives() rt.Collectives {
	return tcpCollectives{t: t}
}

// Reduce folds val into the named cluster-wide sum, blocking until
// every node has contributed: the world-team sum of the collectives
// below, on the same coordinator entry as AllReduce(key, rt.WorldTeam,
// rt.OpSum, val).
func (t *TCP) Reduce(key string, val uint64) (uint64, error) {
	return tcpCollectives{t: t}.reduce(key, rt.WorldTeam, rt.OpSum, val)
}

func (c tcpCollectives) member(op, key string, team rt.Team) error {
	if !team.Contains(c.t.self) {
		return &rt.CollectiveError{Op: op, Key: key,
			Detail: fmt.Sprintf("node %d is not a member of team %s", c.t.self, team.Tag())}
	}
	return nil
}

// reduce runs one coordinator reduction: contribute val, then poll
// until every required worker has (the contribution is idempotent). A
// count of 0 means every node; teams carry their size so the
// coordinator completes at team-size contributions.
func (c tcpCollectives) reduce(key string, team rt.Team, rop rt.ReduceOp, val uint64) (uint64, error) {
	count := 0
	if !team.World() {
		count = team.Size(c.t.n)
	}
	resp, err := c.t.poll(time.Millisecond, &coordMsg{Op: "reduce", Key: key, Val: val, ROp: rop, Count: count})
	if err != nil {
		return 0, err
	}
	if resp == nil {
		return val, nil // standalone worker: the single-process identity
	}
	return resp.Total, nil
}

func (c tcpCollectives) emit(tag string, team rt.Team, val uint64) {
	if !obs.Enabled() {
		return
	}
	size := 0 // 0 = world team
	if !team.World() {
		size = team.Size(c.t.n)
	}
	obs.Emit(obs.KCollective, c.t.self, int64(size), int64(val), tag)
}

// AllReduce implements rt.Collectives.
func (c tcpCollectives) AllReduce(key string, team rt.Team, op rt.ReduceOp, val uint64) (uint64, error) {
	if err := c.member("allreduce", key, team); err != nil {
		return 0, err
	}
	total, err := c.reduce(key+team.Tag(), team, op, val)
	if err != nil {
		return 0, err
	}
	c.emit("allreduce:"+op.String(), team, total)
	return total, nil
}

// Broadcast implements rt.Collectives: root contributes its value and
// everyone else the sum identity, so the team-wide sum is root's value.
func (c tcpCollectives) Broadcast(key string, team rt.Team, root int, val uint64) (uint64, error) {
	if err := c.member("broadcast", key, team); err != nil {
		return 0, err
	}
	if !team.Contains(root) {
		return 0, &rt.CollectiveError{Op: "broadcast", Key: key,
			Detail: fmt.Sprintf("root %d is not a member of team %s", root, team.Tag())}
	}
	contrib := uint64(0)
	if c.t.self == root {
		contrib = val
	}
	total, err := c.reduce(key+":bcast"+team.Tag(), team, rt.OpSum, contrib)
	if err != nil {
		return 0, err
	}
	c.emit("broadcast", team, total)
	return total, nil
}

// Barrier implements rt.Collectives: a sum of zeros under a
// "barrier:"-prefixed key.
func (c tcpCollectives) Barrier(key string, team rt.Team) error {
	if err := c.member("barrier", key, team); err != nil {
		return err
	}
	_, err := c.reduce("barrier:"+key+team.Tag(), team, rt.OpSum, 0)
	if err != nil {
		return err
	}
	c.emit("barrier", team, 0)
	return nil
}

var _ rt.Collectives = tcpCollectives{}
