// Package pgas implements the partitioned global address space Gravel's
// PUT and atomic-increment operations act on (§6): symmetric distributed
// arrays, block-partitioned across nodes, with a local slice per node.
//
// In the paper, a slice of each distributed array lives at the same
// virtual address on every node; here each array has a small integer ID
// that travels in the message command word, and owner/offset computation
// is explicit.
package pgas

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
)

// AllocError reports an invalid allocation request. Alloc, AllocRanges
// and SymAlloc panic with it (a bad size is a programming error, like a
// bad gravel.Config field), mirroring Config.Validate's *ConfigError
// funnel: callers that recover see one typed value with the offending
// parameters instead of a raw string.
type AllocError struct {
	// Kind names the allocator ("Alloc", "AllocRanges", "SymAlloc").
	Kind string
	// Detail describes the invalid request.
	Detail string
}

func (e *AllocError) Error() string {
	return fmt.Sprintf("pgas: %s: %s", e.Kind, e.Detail)
}

// RangeError reports an out-of-range index on a specific array. Owner
// and the atomic cell accessors panic with it, so the diagnostic carries
// which array was misaddressed, not just the bad index.
type RangeError struct {
	// Array is the misaddressed array's ID.
	Array uint16
	// Index is the out-of-range global index.
	Index uint64
	// Len is the array's global length.
	Len int
}

func (e *RangeError) Error() string {
	return fmt.Sprintf("pgas: array %d: index %d out of range [0,%d)", e.Array, e.Index, e.Len)
}

// NotHostedError reports a host-side access to a cell whose owner this
// process does not host: the process holds no window for that node, so
// there is no copy to read or write. The atomic cell accessors panic
// with it.
type NotHostedError struct {
	// Array is the array's ID and Index the cell's global index.
	Array uint16
	Index uint64
	// Owner is the node that owns the cell.
	Owner int
}

func (e *NotHostedError) Error() string {
	return fmt.Sprintf("pgas: array %d: cell %d lives on node %d, which this process does not host", e.Array, e.Index, e.Owner)
}

// Space is one cluster-wide address space. A process allocates only
// the windows of the nodes it hosts (hosted), as each PE of a symmetric
// heap allocates only its own slice.
type Space struct {
	nodes  int
	hosted []bool
	// mu serializes the allocators and guards sig. Lookups never take
	// it: they read the table the last allocator published.
	mu sync.Mutex
	// arrays is the ID-indexed array table, read lock-free by Array and
	// Lookup (the receive side translates every message's array ID, so
	// the translation must be a table read, never a lock). An allocator
	// appends under mu and publishes the longer slice header; a reader
	// holding an older header never indexes past its own length, so
	// sharing the backing store between versions is safe.
	arrays atomic.Pointer[[]*Array]
	// sig is the running allocation-order signature: a chained FNV-1a
	// hash over every allocation's (kind, shape). Two processes of a
	// distributed run perform the same allocation sequence iff their
	// signatures match — which is what makes symmetric array IDs and
	// offsets valid cluster-wide (see SymAlloc / AllocSig).
	sig uint64
}

// fnvOffset/fnvPrime are the FNV-1a constants used for the allocation
// signature chain.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func (s *Space) mixSig(vs ...uint64) {
	h := s.sig
	if h == 0 {
		h = fnvOffset
	}
	for _, v := range vs {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= fnvPrime
			v >>= 8
		}
	}
	s.sig = h
}

// NewSpace creates an address space spanning the given number of nodes,
// every one of them hosted by this process.
func NewSpace(nodes int) *Space {
	return NewHostedSpace(nodes, func(int) bool { return true })
}

// NewHostedSpace creates an address space spanning the given number of
// nodes, of which this process hosts those hosts reports: its arrays
// hold windows for those nodes only.
func NewHostedSpace(nodes int, hosts func(node int) bool) *Space {
	if nodes <= 0 {
		panic("pgas: non-positive node count")
	}
	s := &Space{nodes: nodes, hosted: make([]bool, nodes)}
	for i := range s.hosted {
		s.hosted[i] = hosts(i)
	}
	return s
}

// Nodes returns the number of nodes in the space.
func (s *Space) Nodes() int { return s.nodes }

// Hosts reports whether this process hosts node, and so holds its
// window of every array.
func (s *Space) Hosts(node int) bool { return s.hosted[node] }

// Array is a symmetric distributed array of 64-bit words. By default it
// is block-partitioned (element i lives on node i/part); AllocRanges
// creates arrays with explicit per-node ranges instead (used to
// co-locate per-edge slots with the owning vertex). The shape — length,
// partition, owner map — is the whole cluster's; the cells are only the
// windows of the nodes this process hosts. A node another process hosts
// has an empty window, and a host-side access to one of its cells panics
// *NotHostedError.
type Array struct {
	id     uint16
	space  *Space
	len    int
	part   int
	sym    bool  // allocated by SymAlloc: every node owns exactly part cells
	bounds []int // nil for block partition; else len nodes+1, ascending
	local  [][]uint64
	// recip is ceil(2^64/part), and recipLen the length, where that
	// reciprocal is exact (setReciprocal); recipLen is 0 elsewhere, so
	// idx < recipLen both range-checks idx and selects the multiply.
	recip, recipLen uint64
}

// Alloc creates a distributed array of n elements, zero-initialized.
func (s *Space) Alloc(n int) *Array {
	if n <= 0 {
		panic(&AllocError{Kind: "Alloc", Detail: fmt.Sprintf("non-positive array length %d", n)})
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	part := (n + s.nodes - 1) / s.nodes
	a := s.allocLocked(n, part, false)
	s.mixSig(1, uint64(n))
	return a
}

// SymAlloc creates a symmetric-heap array: every node owns exactly
// perNode cells, and — because array IDs are assigned in allocation
// order — the same (array ID, offset) pair names the same remote cell
// on every process of a distributed run, provided every process
// performs the same allocation sequence (verify with AllocSig). Global
// index node*perNode + off addresses node's cell off; see SymIndex.
func (s *Space) SymAlloc(perNode int) *Array {
	if perNode <= 0 {
		panic(&AllocError{Kind: "SymAlloc", Detail: fmt.Sprintf("non-positive per-node length %d", perNode)})
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	a := s.allocLocked(perNode*s.nodes, perNode, true)
	s.mixSig(3, uint64(perNode))
	return a
}

// table returns the published array table (nil before the first
// allocation).
func (s *Space) table() []*Array {
	if t := s.arrays.Load(); t != nil {
		return *t
	}
	return nil
}

// publishLocked appends a to the array table and publishes it; s.mu
// must be held and a.id must be the table's current length.
func (s *Space) publishLocked(a *Array) {
	t := append(s.table(), a)
	s.arrays.Store(&t)
}

// allocLocked builds a block-partitioned array of n cells with stride
// part; s.mu must be held.
func (s *Space) allocLocked(n, part int, sym bool) *Array {
	id := len(s.table())
	if id > math.MaxUint16 {
		panic(&AllocError{Kind: "Alloc", Detail: "too many arrays"})
	}
	a := &Array{
		id:    uint16(id),
		space: s,
		len:   n,
		part:  part,
		sym:   sym,
		local: make([][]uint64, s.nodes),
	}
	a.setReciprocal()
	for node := range a.local {
		if s.hosted[node] {
			lo, hi := a.LocalRange(node)
			a.local[node] = make([]uint64, hi-lo)
		}
	}
	s.publishLocked(a)
	return a
}

// AllocSig returns the space's allocation-order signature: a hash
// chained over every allocation performed so far, in order. Distributed
// runs compare signatures across processes (rt.VerifySymmetric) to
// reject permuted allocation orders deterministically — two spaces with
// the same signature assign the same ID, shape and owner map to every
// array, so symmetric IDs and offsets agree cluster-wide.
func (s *Space) AllocSig() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sig == 0 {
		return fnvOffset // empty space: stable nonzero signature
	}
	return s.sig
}

// AllocRanges creates a distributed array where node i owns global
// indexes [bounds[i], bounds[i+1]). bounds must have Nodes()+1 ascending
// entries starting at 0; bounds[Nodes()] is the array length.
func (s *Space) AllocRanges(bounds []int) *Array {
	if len(bounds) != s.nodes+1 {
		panic(&AllocError{Kind: "AllocRanges", Detail: fmt.Sprintf("got %d bounds for %d nodes", len(bounds), s.nodes)})
	}
	if bounds[0] != 0 {
		panic(&AllocError{Kind: "AllocRanges", Detail: "bounds must start at 0"})
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] < bounds[i-1] {
			panic(&AllocError{Kind: "AllocRanges", Detail: fmt.Sprintf("bounds must be ascending (bounds[%d]=%d < bounds[%d]=%d)", i, bounds[i], i-1, bounds[i-1])})
		}
	}
	n := bounds[s.nodes]
	if n <= 0 {
		panic(&AllocError{Kind: "AllocRanges", Detail: fmt.Sprintf("non-positive array length %d", n)})
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	id := len(s.table())
	if id > math.MaxUint16 {
		panic(&AllocError{Kind: "AllocRanges", Detail: "too many arrays"})
	}
	a := &Array{
		id:     uint16(id),
		space:  s,
		len:    n,
		bounds: append([]int(nil), bounds...),
		local:  make([][]uint64, s.nodes),
	}
	for node := range a.local {
		if s.hosted[node] {
			a.local[node] = make([]uint64, bounds[node+1]-bounds[node])
		}
	}
	s.publishLocked(a)
	s.mixSig(2, uint64(len(bounds)))
	for _, b := range bounds {
		s.mixSig(uint64(b))
	}
	return a
}

// Lookup returns the array with the given ID, or nil if no such array
// has been allocated. It takes no lock.
func (s *Space) Lookup(id uint16) *Array {
	if t := s.table(); int(id) < len(t) {
		return t[id]
	}
	return nil
}

// Array returns the array with the given ID; an unallocated ID is a
// programming error and panics. It takes no lock.
func (s *Space) Array(id uint16) *Array {
	a := s.Lookup(id)
	if a == nil {
		panic(fmt.Sprintf("pgas: unknown array id %d", id))
	}
	return a
}

// ID returns the array's identifier (used in message command words).
func (a *Array) ID() uint16 { return a.id }

// Len returns the global length.
func (a *Array) Len() int { return a.len }

// PartSize returns the block-partition stride (elements per node); it
// is 0 for arrays created with AllocRanges, whose partition is the
// bounds slice.
func (a *Array) PartSize() int { return a.part }

// Sym reports whether the array came from SymAlloc.
func (a *Array) Sym() bool { return a.sym }

// PerNode returns a symmetric array's per-node cell count (0 for
// non-symmetric arrays).
func (a *Array) PerNode() int {
	if !a.sym {
		return 0
	}
	return a.part
}

// SymIndex returns the global index of symmetric cell off on node —
// the address every process uses to name that node's copy. The array
// must be symmetric and off within [0, PerNode()).
func (a *Array) SymIndex(node int, off int) uint64 {
	if !a.sym {
		panic(&AllocError{Kind: "SymIndex", Detail: fmt.Sprintf("array %d is not symmetric", a.id)})
	}
	if off < 0 || off >= a.part {
		panic(&RangeError{Array: a.id, Index: uint64(off), Len: a.part})
	}
	return uint64(node*a.part + off)
}

// setReciprocal gives a block partition its reciprocal. The high word
// of idx*ceil(2^64/part) is idx/part for every idx < 2^32 and
// part <= 2^32 (Lemire, Kaser & Kurz, "Faster Remainder by Direct
// Computation", 2019), so an array of at most 2^32 cells finds owners
// with a multiply, not a division. Longer arrays, and part 1 (whose
// reciprocal, 2^64, does not fit), divide.
func (a *Array) setReciprocal() {
	if uint64(a.len) <= 1<<32 && a.part > 1 {
		a.recip, a.recipLen = math.MaxUint64/uint64(a.part)+1, uint64(a.len)
	}
}

// Owner returns the node owning global index idx.
func (a *Array) Owner(idx uint64) int {
	if idx < a.recipLen {
		hi, _ := bits.Mul64(idx, a.recip)
		return int(hi)
	}
	return a.owner(idx)
}

// owner is Owner without the reciprocal: the range check, the division
// and AllocRanges' binary search. It is kept out of line so that Owner
// stays within the inliner's budget.
//
//go:noinline
func (a *Array) owner(idx uint64) int {
	i := int(idx)
	if i < 0 || i >= a.len {
		panic(&RangeError{Array: a.id, Index: idx, Len: a.len})
	}
	if a.bounds == nil {
		return i / a.part
	}
	// Binary search for the owning range.
	lo, hi := 0, len(a.bounds)-1
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if a.bounds[mid] <= i {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// Owners sets dests[l] to the owner of idx[l] for every lane l with
// active[l]: the verb front-end's destination lookup, one call per
// work-group. The first active lane out of range panics *RangeError
// before any later lane is looked up.
func (a *Array) Owners(dests []int, idx []uint64, active []bool) {
	for l, on := range active {
		if on {
			dests[l] = a.Owner(idx[l])
		}
	}
}

// LocalRange returns the [lo,hi) global index range owned by node,
// whether or not this process hosts it.
func (a *Array) LocalRange(node int) (lo, hi int) {
	if a.bounds != nil {
		return a.bounds[node], a.bounds[node+1]
	}
	lo = node * a.part
	return lo, max(lo, min(lo+a.part, a.len))
}

// Local returns node's local slice, empty for a node this process does
// not host. Elements must be accessed with the atomic helpers below when
// the cluster is running.
func (a *Array) Local(node int) []uint64 { return a.local[node] }

// LocalWindow returns node's local slice together with the global index
// of its first cell: global index idx is local[idx-lo] exactly when
// idx-lo < len(local). Neither value changes after allocation, so a
// resolver can cache the pair and turn a run of records for one array
// into slice indexing, with no Owner division and no LocalRange call.
func (a *Array) LocalWindow(node int) (local []uint64, lo uint64) {
	l, _ := a.LocalRange(node)
	return a.local[node], uint64(l)
}

// cell returns idx's cell. Owner has range-checked idx, so an offset
// past the owner's window means the window is not held here.
func (a *Array) cell(idx uint64) *uint64 {
	node := a.Owner(idx)
	lo, _ := a.LocalRange(node)
	if l, i := a.local[node], int(idx)-lo; i < len(l) {
		return &l[i]
	}
	panic(&NotHostedError{Array: a.id, Index: idx, Owner: node})
}

// Load atomically reads element idx.
func (a *Array) Load(idx uint64) uint64 { return atomic.LoadUint64(a.cell(idx)) }

// Store atomically writes element idx.
func (a *Array) Store(idx, val uint64) { atomic.StoreUint64(a.cell(idx), val) }

// Add atomically adds delta to element idx and returns the new value.
func (a *Array) Add(idx, delta uint64) uint64 { return atomic.AddUint64(a.cell(idx), delta) }

// CompareAndSwap atomically replaces element idx if it equals old.
func (a *Array) CompareAndSwap(idx, old, new uint64) bool {
	return atomic.CompareAndSwapUint64(a.cell(idx), old, new)
}

// Sum returns the sum of the elements this process hosts: every element
// in-process, one node's shard across processes (not atomic with respect
// to concurrent writers; call at quiescence).
func (a *Array) Sum() uint64 {
	var s uint64
	for _, l := range a.local {
		for _, v := range l {
			s += v
		}
	}
	return s
}

// Fill sets every element this process hosts to v (call at quiescence).
func (a *Array) Fill(v uint64) {
	for _, l := range a.local {
		for i := range l {
			l[i] = v
		}
	}
}
