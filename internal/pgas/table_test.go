package pgas

import (
	"sync"
	"testing"
)

// TestArrayTableRacesAllocators: Space.Array and Lookup read the array
// table without a lock while all three allocators append to it. Every
// reader must see a dense prefix of IDs that only ever grows, each ID
// resolving to the array that carries it; and the racing allocators
// leave the same allocation signature as the same order run serially.
// Run under -race: this is the test that the lock-free read is ordered
// after the publish.
func TestArrayTableRacesAllocators(t *testing.T) {
	const nodes, perKind, readers = 4, 200, 4
	s := NewSpace(nodes)
	var writers, rd sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < readers; r++ {
		rd.Add(1)
		go func() {
			defer rd.Done()
			seen := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				id := 0
				for a := s.Lookup(0); a != nil; a = s.Lookup(uint16(id)) {
					if a.ID() != uint16(id) || s.Array(uint16(id)) != a {
						t.Errorf("id %d resolves to array %d", id, a.ID())
						return
					}
					id++
				}
				if id < seen {
					t.Errorf("table shrank from %d to %d arrays", seen, id)
					return
				}
				seen = id
			}
		}()
	}
	for kind := 0; kind < 3; kind++ {
		writers.Add(1)
		go func(kind int) {
			defer writers.Done()
			for i := 0; i < perKind; i++ {
				symOp{kind: kind, n: 3}.apply(s)
			}
		}(kind)
	}
	writers.Wait()
	close(stop)
	rd.Wait()
	for id := 0; id < 3*perKind; id++ {
		if a := s.Lookup(uint16(id)); a == nil || a.ID() != uint16(id) {
			t.Fatalf("id %d missing after %d allocations: IDs are not dense", id, 3*perKind)
		}
	}
	if s.Lookup(3*perKind) != nil {
		t.Fatal("Lookup invented an array past the table")
	}

	// The same allocation order, serially, must hash to the same
	// signature: the table change left AllocSig alone.
	ref := NewSpace(nodes)
	for id := 0; id < 3*perKind; id++ {
		a := s.Array(uint16(id))
		switch {
		case a.Sym():
			ref.SymAlloc(a.PerNode())
		case a.PartSize() == 0:
			symOp{kind: 2, n: 3}.apply(ref)
		default:
			ref.Alloc(a.Len())
		}
	}
	if s.AllocSig() != ref.AllocSig() {
		t.Fatalf("AllocSig %#x after racing allocators, %#x for the same order run serially", s.AllocSig(), ref.AllocSig())
	}
}

// TestUnknownArrayIDPanics: Array keeps its panic for direct callers
// (an unallocated ID is a programming error); Lookup is the
// non-panicking form the receive path validates with.
func TestUnknownArrayIDPanics(t *testing.T) {
	s := NewSpace(2)
	if s.Lookup(0) != nil {
		t.Fatal("Lookup(0) on an empty space returned an array")
	}
	s.Alloc(4)
	defer func() {
		if r, _ := recover().(string); r != "pgas: unknown array id 1" {
			t.Fatalf("Array(1) panic = %q, want the unknown-id panic", r)
		}
	}()
	s.Array(1)
}

// TestLocalWindow: for every array kind and node, the window is the
// node's local slice and lo its first global index, so idx-lo indexes
// the window exactly for the indexes the node owns.
func TestLocalWindow(t *testing.T) {
	s := NewSpace(4)
	for kind := 0; kind < 3; kind++ {
		a := symOp{kind: kind, n: 5}.apply(s)
		for idx := 0; idx < a.Len(); idx++ {
			owner := a.Owner(uint64(idx))
			for node := 0; node < 4; node++ {
				local, lo := a.LocalWindow(node)
				in := uint64(idx)-lo < uint64(len(local))
				if in != (node == owner) {
					t.Fatalf("kind %d idx %d: in node %d's window = %v, owner is %d", kind, idx, node, in, owner)
				}
				if in {
					local[uint64(idx)-lo]++
					if a.Load(uint64(idx)) != 1 {
						t.Fatalf("kind %d idx %d: window cell is not the cell Load reads", kind, idx)
					}
					local[uint64(idx)-lo]--
				}
			}
		}
	}
}

// BenchmarkSpaceArrayParallel: array-ID translation from every
// processor at once — the receive side does one per command-word change
// on every resolver bank and bypassing aggregator thread.
func BenchmarkSpaceArrayParallel(b *testing.B) {
	s := NewSpace(4)
	for i := 0; i < 8; i++ {
		s.Alloc(64)
	}
	b.RunParallel(func(pb *testing.PB) {
		var id uint16
		for pb.Next() {
			if s.Array(id&7).ID() != id&7 {
				b.Error("wrong array")
			}
			id++
		}
	})
}
