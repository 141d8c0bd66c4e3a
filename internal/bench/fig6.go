package bench

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"gravel/internal/queue"
	"gravel/internal/timemodel"
)

// benchWorkers picks producer/consumer counts that fit the machine: the
// paper's configuration (many WGs, 4 consumer threads) on multi-core
// hosts, a minimal 2P/1C pipeline on a single core where extra spinning
// goroutines would only thrash the scheduler.
func benchWorkers() (prods, cons int) {
	n := runtime.GOMAXPROCS(0)
	switch {
	case n >= 8:
		return 8, 4
	case n >= 4:
		return 4, 2
	case n >= 2:
		return 2, 2
	default:
		return 2, 1
	}
}

// runGravelQueue pumps totalMsgs messages of rows*8 bytes through a
// Gravel queue with the given WG width (cols), using prods producer
// goroutines (each acting as one work-group stream) and cons consumers.
// It returns the measured throughput in GB/s. Consumers checksum every
// word so payload reads are not optimized away.
func runGravelQueue(totalMsgs, rows, cols, prods, cons, numSlots int) float64 {
	return runGravelQueueRaw(totalMsgs, queue.NewGravel(numSlots, rows, cols), prods, cons)
}

// runGravelQueueRaw is runGravelQueue over a caller-built queue (used by
// the padding ablation).
func runGravelQueueRaw(totalMsgs int, q *queue.Gravel, prods, cons int) float64 {
	rows, cols := q.Rows, q.Cols
	perProd := totalMsgs / prods / cols * cols
	if perProd < cols {
		perProd = cols
	}

	var wg sync.WaitGroup
	start := time.Now()
	for p := 0; p < prods; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for sent := 0; sent < perProd; sent += cols {
				s := q.Reserve(cols)
				for r := 0; r < rows; r++ {
					row := s.Row(r)
					for m := range row {
						row[m] = uint64(p<<32 + sent + m)
					}
				}
				s.Commit()
			}
		}(p)
	}

	var sink [16]uint64
	var cwg sync.WaitGroup
	done := make(chan struct{})
	for c := 0; c < cons; c++ {
		cwg.Add(1)
		go func(c int) {
			defer cwg.Done()
			var sum uint64
			for {
				if !q.TryConsume(func(payload []uint64, rows, cols, count int) {
					for r := 0; r < rows; r++ {
						base := r * cols
						for m := 0; m < count; m++ {
							sum += payload[base+m]
						}
					}
				}) {
					select {
					case <-done:
						if q.Empty() {
							sink[c] = sum
							return
						}
					default:
					}
					runtime.Gosched()
				}
			}
		}(c)
	}
	wg.Wait()
	close(done)
	cwg.Wait()
	elapsed := time.Since(start)

	bytes := float64(perProd*prods) * float64(rows*8)
	return bytes / elapsed.Seconds() / 1e9
}

// Fig6 reproduces Figure 6: producer/consumer queue throughput for
// 32-byte messages versus work-group size (1, 2 and 4 wavefronts), with
// the dynamically-counted atomics per work-item, plus the §4.1
// observation that work-item-level synchronization is two orders of
// magnitude slower.
func Fig6() *Table {
	t := &Table{
		Title:  "Figure 6: queue throughput vs work-group size (32 B messages)",
		Header: []string{"WG size", "GB/s (modeled, Table 3 GPU)", "GB/s (measured, host)", "atomics/WI"},
		Clocks: []Clock{Label, Modeled, Host, Count},
	}
	p := timemodel.Default()
	const rows = 4 // 32-byte messages
	const total = 1 << 21
	prods, cons := benchWorkers()
	atomicsPerMsg := float64(queue.ProducerAtomicsPerReserve + queue.ConsumerAtomicsPerClaim)
	for _, wfs := range []int{1, 2, 4} {
		cols := 64 * wfs
		gbs := runGravelQueue(total, rows, cols, prods, cons, 128)
		t.AddRow(
			fmt.Sprintf("%d wavefront(s)", wfs),
			F(modeledGravelGBs(p, rows, cols)),
			F(gbs),
			F(atomicsPerMsg/float64(cols)),
		)
	}
	// Work-item-level synchronization: every message pays its own
	// reservation (cols=1).
	wiGbs := runGravelQueue(1<<18, rows, 1, prods, cons, 4096)
	t.AddRow("WI-level sync", F(modeledGravelGBs(p, rows, 1)), F(wiGbs), F(atomicsPerMsg))
	t.Note("paper: 4-WF WGs reach ~7 GB/s, ~3x the 1-WF rate; WI-level sync is ~0.06 GB/s (two orders slower)")
	t.Note("measured with %d producer / %d consumer goroutines on GOMAXPROCS=%d", prods, cons, runtime.GOMAXPROCS(0))
	t.Note("atomics/WI is the queue-protocol count (2 producer + 2 consumer RMWs amortized across the WG)")
	return t
}
