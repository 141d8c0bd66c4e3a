package pgas

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestBlockPartition(t *testing.T) {
	s := NewSpace(4)
	a := s.Alloc(10) // part = 3: [0,3) [3,6) [6,9) [9,10)
	if a.PartSize() != 3 {
		t.Fatalf("part = %d", a.PartSize())
	}
	wantOwner := []int{0, 0, 0, 1, 1, 1, 2, 2, 2, 3}
	for i, w := range wantOwner {
		if got := a.Owner(uint64(i)); got != w {
			t.Errorf("Owner(%d) = %d, want %d", i, got, w)
		}
	}
	lo, hi := a.LocalRange(3)
	if lo != 9 || hi != 10 {
		t.Errorf("LocalRange(3) = [%d,%d)", lo, hi)
	}
	if len(a.Local(1)) != 3 || len(a.Local(3)) != 1 {
		t.Errorf("local sizes wrong")
	}
}

// TestHostedSpaceHoldsOnlyHostedWindows: a space that hosts some nodes
// has the whole cluster's shapes but cells only in the hosted windows.
func TestHostedSpaceHoldsOnlyHostedWindows(t *testing.T) {
	hosts := func(n int) bool { return n == 1 || n == 3 }
	full, part := NewSpace(4), NewHostedSpace(4, hosts)
	alloc := func(s *Space) []*Array {
		// Alloc(5): part 2, node 3's range starts past the end.
		return []*Array{s.Alloc(10), s.Alloc(5), s.AllocRanges([]int{0, 4, 4, 9, 12}), s.SymAlloc(3)}
	}
	fulls, parts := alloc(full), alloc(part)
	if full.AllocSig() != part.AllocSig() {
		t.Errorf("hosting changed the allocation signature")
	}
	for k, a := range parts {
		var want uint64
		for n := 0; n < 4; n++ {
			if part.Hosts(n) != hosts(n) {
				t.Errorf("Hosts(%d) = %v", n, part.Hosts(n))
			}
			lo, hi := a.LocalRange(n)
			if flo, fhi := fulls[k].LocalRange(n); lo != flo || hi != fhi {
				t.Errorf("array %d: LocalRange(%d) = [%d,%d), the full space's [%d,%d)", k, n, lo, hi, flo, fhi)
			}
			if got, wantLen := len(a.Local(n)), map[bool]int{true: hi - lo}[hosts(n)]; got != wantLen {
				t.Errorf("array %d: node %d's window holds %d cells, want %d", k, n, got, wantLen)
			}
			if hosts(n) {
				want += uint64(hi - lo)
			}
		}
		a.Fill(1)
		if got := a.Sum(); got != want {
			t.Errorf("array %d: Sum after Fill(1) = %d, want the %d hosted cells", k, got, want)
		}
		for i := 0; i < a.Len(); i++ {
			idx, owner := uint64(i), a.Owner(uint64(i))
			for name, op := range map[string]func(){
				"Load":           func() { a.Load(idx) },
				"Store":          func() { a.Store(idx, 7) },
				"Add":            func() { a.Add(idx, 1) },
				"CompareAndSwap": func() { a.CompareAndSwap(idx, 1, 1) },
			} {
				err := func() (err error) {
					defer func() { err, _ = recover().(error) }()
					op()
					return nil
				}()
				var nh *NotHostedError
				if hosts(owner) && err != nil {
					t.Errorf("array %d: %s(%d) on hosted node %d: %v", k, name, i, owner, err)
				} else if !hosts(owner) && (!errors.As(err, &nh) || *nh != (NotHostedError{a.ID(), idx, owner})) {
					t.Errorf("array %d: %s(%d) on node %d: %v, want a *NotHostedError naming it", k, name, i, owner, err)
				}
			}
		}
	}
}

func TestRangePartition(t *testing.T) {
	s := NewSpace(3)
	a := s.AllocRanges([]int{0, 5, 5, 12})
	if a.Len() != 12 {
		t.Fatalf("Len = %d", a.Len())
	}
	for i := 0; i < 5; i++ {
		if a.Owner(uint64(i)) != 0 {
			t.Errorf("Owner(%d) != 0", i)
		}
	}
	for i := 5; i < 12; i++ {
		if a.Owner(uint64(i)) != 2 {
			t.Errorf("Owner(%d) = %d, want 2", i, a.Owner(uint64(i)))
		}
	}
	if n := len(a.Local(1)); n != 0 {
		t.Errorf("node 1 owns %d elements, want 0", n)
	}
}

func TestAllocRangesValidation(t *testing.T) {
	s := NewSpace(2)
	for _, bad := range [][]int{
		{0, 1},    // wrong length
		{1, 2, 3}, // doesn't start at 0
		{0, 5, 3}, // descending
		{0, 0, 0}, // zero length
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AllocRanges(%v) did not panic", bad)
				}
			}()
			s.AllocRanges(bad)
		}()
	}
}

func TestAtomicOps(t *testing.T) {
	s := NewSpace(2)
	a := s.Alloc(8)
	a.Store(5, 10)
	if a.Load(5) != 10 {
		t.Fatal("store/load")
	}
	if a.Add(5, 3) != 13 {
		t.Fatal("add")
	}
	if !a.CompareAndSwap(5, 13, 20) || a.CompareAndSwap(5, 13, 1) {
		t.Fatal("cas")
	}
}

func TestSumFill(t *testing.T) {
	s := NewSpace(3)
	a := s.Alloc(100)
	a.Fill(2)
	if a.Sum() != 200 {
		t.Fatalf("Sum = %d", a.Sum())
	}
	a.Fill(0)
	if a.Sum() != 0 {
		t.Fatalf("Sum after clear = %d", a.Sum())
	}
}

func TestArrayRegistry(t *testing.T) {
	s := NewSpace(2)
	a := s.Alloc(4)
	b := s.Alloc(4)
	if a.ID() == b.ID() {
		t.Fatal("duplicate IDs")
	}
	if s.Array(a.ID()) != a || s.Array(b.ID()) != b {
		t.Fatal("registry lookup broken")
	}
}

func TestConcurrentAdds(t *testing.T) {
	s := NewSpace(4)
	a := s.Alloc(16)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				a.Add(uint64(i%16), 1)
			}
		}()
	}
	wg.Wait()
	if a.Sum() != 8000 {
		t.Fatalf("Sum = %d, want 8000", a.Sum())
	}
}

// TestQuickOwnerConsistency: for any array size and node count, every
// index has exactly one owner and owners partition the index space in
// order.
func TestQuickOwnerConsistency(t *testing.T) {
	f := func(szRaw uint16, nodesRaw uint8) bool {
		sz := int(szRaw)%5000 + 1
		nodes := int(nodesRaw)%16 + 1
		s := NewSpace(nodes)
		a := s.Alloc(sz)
		prev := 0
		count := 0
		for i := 0; i < sz; i++ {
			o := a.Owner(uint64(i))
			if o < prev || o >= nodes {
				return false
			}
			lo, hi := a.LocalRange(o)
			if i < lo || i >= hi {
				return false
			}
			prev = o
			count++
		}
		total := 0
		for n := 0; n < nodes; n++ {
			total += len(a.Local(n))
		}
		return total == sz
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestOwnerOutOfRangePanics(t *testing.T) {
	s := NewSpace(2)
	a := s.Alloc(4)
	defer func() {
		if recover() == nil {
			t.Fatal("Owner out of range did not panic")
		}
	}()
	a.Owner(4)
}

// blockArray is a block-partitioned array of n cells over nodes with no
// backing storage: shapes too large to allocate, for the owner lookup.
func blockArray(n, nodes int) *Array {
	a := &Array{id: 9, len: n, part: (n + nodes - 1) / nodes}
	a.setReciprocal()
	return a
}

// TestOwnersExact: the batched lookup and Owner both equal idx/part at
// every block boundary ±1, on the reciprocal path and on the division
// fallback, and an out-of-range lane raises the same *RangeError from
// both, before Owners writes any later lane.
func TestOwnersExact(t *testing.T) {
	s := NewSpace(7)
	arrays := []*Array{
		s.Alloc(3),   // n < nodes: part 1, divides
		s.Alloc(100), // n not a multiple of nodes
		s.Alloc(1<<20 + 3),
		s.SymAlloc(5),
		blockArray(1<<32, 3), // the longest the reciprocal serves
		blockArray(1<<32, 1), // part 2^32
		blockArray(1<<32+1, 3),
		blockArray(1<<34+5, 7),
	}
	for _, a := range arrays {
		if want := a.len <= 1<<32 && a.part > 1; (a.recip != 0) != want {
			t.Fatalf("len %d part %d: reciprocal %d, want one: %v", a.len, a.part, a.recip, want)
		}
		var idx []uint64
		for b := 0; b <= 7; b++ {
			for i := b*a.part - 1; i <= b*a.part+1; i++ {
				if i >= 0 && i < a.len {
					idx = append(idx, uint64(i))
				}
			}
		}
		dests, on := make([]int, len(idx)), make([]bool, len(idx))
		for l := range on {
			on[l] = true
		}
		a.Owners(dests, idx, on)
		for l, i := range idx {
			want := int(i) / a.part
			if got := a.Owner(i); got != want || dests[l] != want {
				t.Errorf("len %d part %d idx %d: Owner %d, Owners %d, want %d", a.len, a.part, i, got, dests[l], want)
			}
		}
		for _, bad := range []uint64{uint64(a.len), uint64(a.len) + 1, math.MaxUint64} {
			want := RangeError{Array: a.id, Index: bad, Len: a.len}
			if got := rangeErrorOf(func() { a.Owner(bad) }); got != want {
				t.Errorf("Owner(%d) panicked %+v, want %+v", bad, got, want)
			}
			dests := []int{-1, -1, -1}
			if got := rangeErrorOf(func() { a.Owners(dests, []uint64{0, bad, 0}, []bool{true, true, true}) }); got != want {
				t.Errorf("Owners with lane %d panicked %+v, want %+v", bad, got, want)
			}
			if dests[0] != 0 || dests[2] != -1 {
				t.Errorf("Owners with a bad lane 1 wrote dests %v, want [0 -1 -1]", dests)
			}
			a.Owners(dests, []uint64{bad}, []bool{false}) // inactive lanes are not looked up
		}
	}
	rng := rand.New(rand.NewSource(1))
	for k := 0; k < 100000; k++ {
		n := 1 + rng.Int63n(1<<32)
		a := blockArray(int(n), 2+rng.Intn(1000))
		if i := uint64(rng.Int63n(n)); a.Owner(i) != int(i)/a.part {
			t.Fatalf("len %d part %d: Owner(%d) = %d, want %d", a.len, a.part, i, a.Owner(i), int(i)/a.part)
		}
	}
}

// rangeErrorOf runs f and returns the *RangeError it panics with.
func rangeErrorOf(f func()) (e RangeError) {
	defer func() {
		var re *RangeError
		if err, _ := recover().(error); errors.As(err, &re) {
			e = *re
		}
	}()
	f()
	return e
}

// BenchmarkOwners: the verb front-end's destination lookup for one
// 256-lane work-group, on a block partition (the reciprocal) and on an
// AllocRanges array (the binary search).
func BenchmarkOwners(b *testing.B) {
	const lanes = 256
	s := NewSpace(4)
	arrays := []struct {
		name string
		a    *Array
	}{
		{"block", s.Alloc(1 << 20)},
		{"ranges", s.AllocRanges([]int{0, 1 << 18, 1 << 19, 3 << 18, 1 << 20})},
	}
	for _, c := range arrays {
		b.Run(c.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			idx, dests, on := make([]uint64, lanes), make([]int, lanes), make([]bool, lanes)
			for l := range idx {
				idx[l], on[l] = uint64(rng.Intn(c.a.Len())), true
			}
			for b.Loop() {
				c.a.Owners(dests, idx, on)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*lanes), "ns/lane")
		})
	}
}
