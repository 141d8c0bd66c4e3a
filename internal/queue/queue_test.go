package queue

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestReserveCommitConsumeSingle(t *testing.T) {
	q := NewGravel(4, 4, 8)
	s := q.Reserve(3)
	if s.Count() != 3 {
		t.Fatalf("Count = %d, want 3", s.Count())
	}
	for r := 0; r < 4; r++ {
		row := s.Row(r)
		if len(row) != 3 {
			t.Fatalf("Row len = %d, want 3", len(row))
		}
		for m := range row {
			row[m] = uint64(r*10 + m)
		}
	}
	if q.TryConsume(func([]uint64, int, int, int) {}) {
		t.Fatal("consumed before commit")
	}
	s.Commit()
	ok := q.TryConsume(func(p []uint64, rows, cols, count int) {
		if rows != 4 || cols != 8 || count != 3 {
			t.Fatalf("shape %dx%d count %d", rows, cols, count)
		}
		for r := 0; r < rows; r++ {
			for m := 0; m < count; m++ {
				if p[r*cols+m] != uint64(r*10+m) {
					t.Fatalf("payload[%d][%d] = %d", r, m, p[r*cols+m])
				}
			}
		}
	})
	if !ok {
		t.Fatal("TryConsume failed after commit")
	}
	if !q.Empty() {
		t.Fatal("queue should be empty")
	}
}

func TestReserveBounds(t *testing.T) {
	q := NewGravel(4, 2, 4)
	for _, bad := range []int{0, -1, 5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Reserve(%d) did not panic", bad)
				}
			}()
			q.Reserve(bad)
		}()
	}
}

func TestNumSlotsPowerOfTwo(t *testing.T) {
	for _, tc := range []struct{ in, want int }{{1, 1}, {3, 4}, {4, 4}, {100, 128}} {
		if got := NewGravel(tc.in, 1, 1).NumSlots(); got != tc.want {
			t.Errorf("NumSlots(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

// TestWraparound exercises ticket reuse: far more reservations than
// slots, single threaded.
func TestWraparound(t *testing.T) {
	q := NewGravel(2, 1, 2)
	for i := 0; i < 100; i++ {
		s := q.Reserve(2)
		s.Row(0)[0] = uint64(2 * i)
		s.Row(0)[1] = uint64(2*i + 1)
		s.Commit()
		got := []uint64{}
		q.TryConsume(func(p []uint64, rows, cols, count int) {
			got = append(got, p[0:count]...)
		})
		if len(got) != 2 || got[0] != uint64(2*i) || got[1] != uint64(2*i+1) {
			t.Fatalf("iteration %d: got %v", i, got)
		}
	}
}

// TestConcurrentMPMC hammers the queue with many producers and consumers
// and checks no message is lost or duplicated.
func TestConcurrentMPMC(t *testing.T) {
	const (
		producers = 4
		consumers = 3
		perProd   = 2000
		cols      = 16
	)
	q := NewGravel(8, 2, cols)
	seen := make([]atomic.Int32, producers*perProd)

	var cwg sync.WaitGroup
	done := make(chan struct{})
	for c := 0; c < consumers; c++ {
		cwg.Add(1)
		go func() {
			defer cwg.Done()
			for {
				if !q.TryConsume(func(p []uint64, rows, cols, count int) {
					for m := 0; m < count; m++ {
						seen[p[m]].Add(1)
					}
				}) {
					select {
					case <-done:
						if q.Empty() {
							return
						}
					default:
					}
					runtime.Gosched()
				}
			}
		}()
	}

	var pwg sync.WaitGroup
	for p := 0; p < producers; p++ {
		pwg.Add(1)
		go func(p int) {
			defer pwg.Done()
			for i := 0; i < perProd; i += cols {
				n := cols
				if perProd-i < n {
					n = perProd - i
				}
				s := q.Reserve(n)
				row := s.Row(0)
				for m := 0; m < n; m++ {
					row[m] = uint64(p*perProd + i + m)
				}
				s.Commit()
			}
		}(p)
	}
	pwg.Wait()
	close(done)
	cwg.Wait()

	for i := range seen {
		if got := seen[i].Load(); got != 1 {
			t.Fatalf("message %d seen %d times", i, got)
		}
	}
}

// TestQuickVariableCounts is a property test: any sequence of reserve
// counts in [1,cols] round-trips exactly.
func TestQuickVariableCounts(t *testing.T) {
	f := func(counts []uint8) bool {
		const cols = 8
		q := NewGravel(4, 1, cols)
		var want, got []uint64
		next := uint64(0)
		for _, c := range counts {
			n := int(c)%cols + 1
			s := q.Reserve(n)
			row := s.Row(0)
			for m := 0; m < n; m++ {
				row[m] = next
				want = append(want, next)
				next++
			}
			s.Commit()
			for q.TryConsume(func(p []uint64, rows, cols, count int) {
				got = append(got, p[0:count]...)
			}) {
			}
		}
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSPSCRoundTrip(t *testing.T) {
	q := NewSPSC(8, 24)
	msg := []uint64{1, 2, 3}
	var out []uint64
	for i := 0; i < 50; i++ {
		msg[0] = uint64(i)
		q.Produce(msg)
		if !q.TryConsume(func(m []uint64) {
			out = append(out, m[0])
		}) {
			t.Fatal("consume failed")
		}
	}
	for i, v := range out {
		if v != uint64(i) {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
	if q.TryConsume(func([]uint64) {}) {
		t.Fatal("consume on empty ring succeeded")
	}
}

func TestSPSCConcurrent(t *testing.T) {
	q := NewSPSC(16, 8)
	const total = 20000
	var sum atomic.Uint64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		msg := make([]uint64, 1)
		for i := 1; i <= total; i++ {
			msg[0] = uint64(i)
			q.Produce(msg)
		}
	}()
	got := 0
	for got < total {
		if q.TryConsume(func(m []uint64) { sum.Add(m[0]) }) {
			got++
		} else {
			runtime.Gosched()
		}
	}
	wg.Wait()
	if want := uint64(total) * (total + 1) / 2; sum.Load() != want {
		t.Fatalf("sum = %d, want %d", sum.Load(), want)
	}
}

func TestPaddedMPMCStride(t *testing.T) {
	q := NewPaddedMPMC(4, 8)
	if q.Cols != 1 {
		t.Fatalf("Cols = %d, want 1", q.Cols)
	}
	if q.Rows%8 != 0 {
		t.Fatalf("padded rows = %d, want multiple of 8 (64 B)", q.Rows)
	}
	s := q.Reserve(1)
	s.Row(0)[0] = 42
	s.Commit()
	var got uint64
	q.TryConsume(func(p []uint64, rows, cols, count int) { got = p[0] })
	if got != 42 {
		t.Fatalf("round trip = %d", got)
	}
}
