package pgas

import (
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
