package transport

import (
	"fmt"

	"gravel/internal/obs"
	"gravel/internal/rt"
)

// tcpCollectives adapts the coordinator's polled reduction protocol to
// the rt.Collectives surface. Every collective is encoded as one
// coordinator reduction whose key carries the team tag (empty for the
// world team — a world-team sum AllReduce therefore produces the exact
// wire bytes a bare TCP.Reduce produces) and whose required
// contribution count is the team size, so non-members neither block the
// collective nor are blocked by it.
type tcpCollectives struct {
	t *TCP
}

// Collectives returns the transport's host-side collective surface,
// bound to this process's node. Without a coordinator (a standalone
// worker) the collectives degrade to the single-process identity, the
// same convention TCP.Reduce uses.
func (t *TCP) Collectives() rt.Collectives {
	return tcpCollectives{t: t}
}

func (c tcpCollectives) member(op, key string, team rt.Team) error {
	if !team.Contains(c.t.self) {
		return &rt.CollectiveError{Op: op, Key: key,
			Detail: fmt.Sprintf("node %d is not a member of team %s", c.t.self, team.Tag())}
	}
	return nil
}

// reduce runs one coordinator reduction for a team collective. rop and
// count are omitted from the wire message for a world-team sum, keeping
// legacy byte-compatibility; teams always carry an explicit count so
// the coordinator completes at team-size contributions.
func (c tcpCollectives) reduce(key string, team rt.Team, rop string, val uint64) (uint64, error) {
	t := c.t
	if t.coord == nil {
		return val, nil
	}
	if err := t.Err(); err != nil {
		return 0, err
	}
	count := 0
	if !team.World() {
		count = team.Size(t.n)
	}
	total, err := t.coord.reduce(t.self, key, val, rop, count, t.suspect)
	if err != nil {
		t.fail(err)
		return 0, err
	}
	return total, nil
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
	rop := ""
	if op != rt.OpSum {
		rop = op.String()
	}
	total, err := c.reduce(key+team.Tag(), team, rop, val)
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
	total, err := c.reduce(key+":bcast"+team.Tag(), team, "", contrib)
	if err != nil {
		return 0, err
	}
	c.emit("broadcast", team, total)
	return total, nil
}

// Barrier implements rt.Collectives. The world-team barrier reuses the
// legacy "barrier:"+key sum-of-zeros encoding byte for byte, so mixed
// fleets (old Barrier callers, new Collectives callers) rendezvous on
// the same coordinator entry.
func (c tcpCollectives) Barrier(key string, team rt.Team) error {
	if err := c.member("barrier", key, team); err != nil {
		return err
	}
	_, err := c.reduce("barrier:"+key+team.Tag(), team, "", 0)
	if err != nil {
		return err
	}
	c.emit("barrier", team, 0)
	return nil
}

var _ rt.Collectives = tcpCollectives{}
