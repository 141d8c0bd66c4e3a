package transport

import (
	"fmt"
	"hash/fnv"
	"sync"

	"gravel/internal/obs"
	"gravel/internal/rt"
)

// contribution is one member's part of one host collective, sent to
// every other member of the team on the peer streams (DESIGN.md §4.5):
// the team (FNV-64 of its tag), the team's collective count, the label
// (FNV-64 of the key with the operator in the low byte) and the value.
// Members issue a team's collectives in the same order, so a member's
// n-th collective on a team is every member's n-th: the count is the
// match, and the label is checked.
type contribution struct{ team, n, label, val uint64 }

func (c contribution) appendTo(p []byte) []byte { return appendWords(p, c.team, c.n, c.label, c.val) }

func readContribution(p []byte) contribution {
	return contribution{word(p, 0), word(p, 1), word(p, 2), word(p, 3)}
}

func (c contribution) op() rt.ReduceOp { return rt.ReduceOp(c.label & 0xff) }

// openColl is one collective so far: the first contribution, whose
// value is the fold of every value filed, the nodes that filed, and
// whether a label differed from the first.
type openColl struct {
	contribution
	from map[int]bool
	bad  bool
}

// colls is one process's table of open collectives, keyed by team and
// count, and its count of the collectives it opened on each team.
type colls struct {
	mu     sync.Mutex
	open   map[[2]uint64]*openColl
	issued map[uint64]uint64
}

// file records node's contribution. It refuses a second one from a
// node, and one for a collective this process has finished or cannot
// have reached: a peer is at most one collective ahead, since it needs
// this process's contribution to finish the one before.
func (cs *colls) file(node int, c contribution) bool {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.fileLocked(node, c)
}

func (cs *colls) fileLocked(node int, c contribution) bool {
	o := cs.open[[2]uint64{c.team, c.n}]
	switch {
	case o == nil && c.n == cs.issued[c.team]:
		cs.open[[2]uint64{c.team, c.n}] = &openColl{contribution: c, from: map[int]bool{node: true}}
		return true
	case o == nil || o.from[node]:
		return false
	}
	o.from[node] = true
	o.bad = o.bad || c.label != o.label
	o.val = o.op().Combine(o.val, c.val)
	return true
}

// take removes and returns the collective once size nodes have filed.
func (cs *colls) take(c contribution, size int) (o *openColl) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if o = cs.open[[2]uint64{c.team, c.n}]; len(o.from) < size {
		return nil
	}
	delete(cs.open, [2]uint64{c.team, c.n})
	return o
}

func fnv64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

type tcpCollectives struct{ t *TCP }

// Collectives returns the transport's host-side collective surface,
// bound to this process's node. On a single-node cluster (a standalone
// worker) every collective is the identity: there is nobody to wait for.
func (t *TCP) Collectives() rt.Collectives { return tcpCollectives{t} }

// AllReduce implements rt.Collectives: it files this member's
// contribution, sends it to every other member, and parks until theirs
// are in or the transport fails, whose typed error (a dead peer or
// coordinator, a rescale, a stale generation) it returns. Members that
// disagree on the label all get a *rt.CollectiveError; a misuse only
// this caller can see fails before anything is sent.
func (c tcpCollectives) AllReduce(key string, team rt.Team, op rt.ReduceOp, val uint64) (uint64, error) {
	t, members := c.t, team.Members(c.t.n)
	fail := func(format string, a ...any) (uint64, error) {
		return 0, &rt.CollectiveError{Op: "allreduce", Key: key, Detail: fmt.Sprintf(format, a...)}
	}
	switch {
	case op > rt.OpMax:
		return fail("unknown operator %v", op)
	case members[len(members)-1] >= t.n:
		return fail("team %s names a node outside the %d-node cluster", team.Tag(), t.n)
	case !team.Contains(t.self):
		return fail("node %d is not a member of team %s", t.self, team.Tag())
	}
	mine := contribution{team: fnv64(team.Tag()), label: fnv64(key)&^0xff | uint64(op), val: val}
	t.colls.mu.Lock()
	mine.n = t.colls.issued[mine.team]
	t.colls.fileLocked(t.self, mine)
	t.colls.issued[mine.team]++
	t.colls.mu.Unlock()
	for _, m := range members {
		if m != t.self {
			t.sendInline(m, frameColl, mine.appendTo)
		}
	}
	var o *openColl
	var err error
	t.Progress().Wait(func() bool {
		if o = t.colls.take(mine, len(members)); o == nil {
			err = t.Err()
		}
		return o != nil || err != nil
	})
	switch {
	case err != nil:
		return 0, err
	case o.bad:
		return fail("the team's members disagree on this collective's key or operator")
	}
	if obs.Enabled() { // team.Size(0) is 0 for the world team
		obs.Emit(obs.KCollective, t.self, int64(team.Size(0)), int64(o.val), "allreduce:"+op.String())
	}
	return o.val, nil
}
