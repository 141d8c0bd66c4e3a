package rt

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"gravel/internal/pgas"
)

// ReduceOp selects the fold of an AllReduce.
type ReduceOp uint8

const (
	// OpSum adds contributions (the identity is 0).
	OpSum ReduceOp = iota
	// OpMin takes the minimum contribution (the identity is MaxUint64).
	OpMin
	// OpMax takes the maximum contribution (the identity is 0).
	OpMax
)

// String implements fmt.Stringer.
func (o ReduceOp) String() string {
	switch o {
	case OpSum:
		return "sum"
	case OpMin:
		return "min"
	case OpMax:
		return "max"
	default:
		return fmt.Sprintf("ReduceOp(%d)", uint8(o))
	}
}

// Identity returns the op's fold identity.
func (o ReduceOp) Identity() uint64 {
	if o == OpMin {
		return math.MaxUint64
	}
	return 0
}

// Combine folds two values under the op.
func (o ReduceOp) Combine(a, b uint64) uint64 {
	switch o {
	case OpMin:
		if b < a {
			return b
		}
		return a
	case OpMax:
		if b > a {
			return b
		}
		return a
	default:
		return a + b
	}
}

// Team names the subset of nodes participating in a collective. The
// zero Team is the world team: every node of the cluster. Non-world
// teams carry an explicit sorted member list; all members must issue
// the same collectives in the same order, and non-members must not
// participate at all.
type Team struct {
	members []int // nil = world
}

// WorldTeam is the all-nodes team (the zero value, named for clarity).
var WorldTeam = Team{}

// TeamOf builds a team from an explicit member list. Members are
// sorted and must be distinct and non-negative.
func TeamOf(members ...int) Team {
	if len(members) == 0 {
		panic(&CollectiveError{Op: "team", Detail: "empty member list"})
	}
	ms := append([]int(nil), members...)
	sort.Ints(ms)
	for i, m := range ms {
		if m < 0 {
			panic(&CollectiveError{Op: "team", Detail: fmt.Sprintf("negative member %d", m)})
		}
		if i > 0 && ms[i-1] == m {
			panic(&CollectiveError{Op: "team", Detail: fmt.Sprintf("duplicate member %d", m)})
		}
	}
	return Team{members: ms}
}

// World reports whether the team is the all-nodes team.
func (t Team) World() bool { return t.members == nil }

// Members returns the member list, materializing the world team over a
// cluster of the given size. The returned slice must not be mutated.
func (t Team) Members(nodes int) []int {
	if t.members != nil {
		return t.members
	}
	ms := make([]int, nodes)
	for i := range ms {
		ms[i] = i
	}
	return ms
}

// Size returns the member count (nodes for the world team).
func (t Team) Size(nodes int) int {
	if t.members == nil {
		return nodes
	}
	return len(t.members)
}

// Contains reports whether node is a member.
func (t Team) Contains(node int) bool {
	if t.members == nil {
		return true
	}
	i := sort.SearchInts(t.members, node)
	return i < len(t.members) && t.members[i] == node
}

// Rank returns node's index within the sorted member list, or -1.
func (t Team) Rank(node int) int {
	if t.members == nil {
		return node
	}
	i := sort.SearchInts(t.members, node)
	if i < len(t.members) && t.members[i] == node {
		return i
	}
	return -1
}

// Tag returns the team's key tag: empty for the world team (so
// world-team collectives produce exactly the key the pre-team runtime
// produced), else a canonical member-list suffix.
func (t Team) Tag() string {
	if t.members == nil {
		return ""
	}
	var b strings.Builder
	b.WriteString("@t")
	for i, m := range t.members {
		if i > 0 {
			b.WriteByte('.')
		}
		fmt.Fprintf(&b, "%d", m)
	}
	return b.String()
}

// CollectiveError reports a misused or unsupported collective.
type CollectiveError struct {
	// Op is the collective kind ("allreduce", "team", or a device
	// collective's).
	Op string
	// Key is the collective's key, when one was in play.
	Key string
	// Detail describes the problem.
	Detail string
}

func (e *CollectiveError) Error() string {
	if e.Key == "" {
		return fmt.Sprintf("rt: %s: %s", e.Op, e.Detail)
	}
	return fmt.Sprintf("rt: %s %q: %s", e.Op, e.Key, e.Detail)
}

// Collectives is the host-side collective surface of a distributed
// run. Implementations are node-bound: the value a process holds knows
// which node it speaks for. Every member must issue a team's
// collectives in the same order; the key (tag it with a step or phase
// counter) and the operator are a checked label, and members that
// disagree on it get a *CollectiveError. In a single-process run there
// is nothing to coordinate across, so a nil Collectives means
// "identity"; use the AllReduce package helper, which encodes that
// convention.
type Collectives interface {
	// AllReduce folds every member's val under op and returns the
	// result to all members.
	AllReduce(key string, t Team, op ReduceOp, val uint64) (uint64, error)
}

// AllReduce applies c.AllReduce, treating a nil Collectives as the
// single-process identity: the local value already is the global fold.
func AllReduce(c Collectives, key string, t Team, op ReduceOp, val uint64) (uint64, error) {
	if c == nil {
		return val, nil
	}
	return c.AllReduce(key, t, op, val)
}

// SymmetryError reports symmetric-heap disagreement between the
// processes of a distributed run: their spaces performed different
// allocation sequences, so array IDs and offsets would name different
// cells on different nodes.
type SymmetryError struct {
	// Key is the verification key.
	Key string
	// Have is this process's allocation signature.
	Have uint64
	// Min and Max are the cluster-wide signature extremes (they differ).
	Min, Max uint64
}

func (e *SymmetryError) Error() string {
	return fmt.Sprintf("rt: symmetric heap disagreement at %q: local allocation signature %016x, cluster range [%016x, %016x] — processes allocated in different orders",
		e.Key, e.Have, e.Min, e.Max)
}

// VerifySymmetric checks that every process of a distributed run has
// performed the same allocation sequence on its space, which is the
// precondition for symmetric array IDs/offsets (SymAlloc) to agree
// cluster-wide. A permuted allocation order is rejected
// deterministically with a *SymmetryError on every member. With a nil
// Collectives (single process) there is nothing to disagree with.
func VerifySymmetric(c Collectives, sp *pgas.Space, key string) error {
	if c == nil {
		return nil
	}
	sig := sp.AllocSig()
	lo, err := c.AllReduce(key+":symsig:min", WorldTeam, OpMin, sig)
	if err != nil {
		return err
	}
	hi, err := c.AllReduce(key+":symsig:max", WorldTeam, OpMax, sig)
	if err != nil {
		return err
	}
	if lo != hi {
		return &SymmetryError{Key: key, Have: sig, Min: lo, Max: hi}
	}
	return nil
}
