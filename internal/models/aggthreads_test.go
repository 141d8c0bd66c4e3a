package models_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"gravel/internal/core"
	"gravel/internal/models"
	"gravel/internal/timemodel"
)

// drainThreads counts the live aggregator threads in this process by
// their entry frame in a full goroutine dump.
func drainThreads() int {
	buf := make([]byte, 4<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return strings.Count(string(buf), "agg.(*driver).run(")
}

// TestAggThreadsReportedAreStarted: Stats divides aggregator busy time
// by Agg.Threads, so every strategy has to start exactly the thread
// count it reports (the archive strategy used to start one regardless).
func TestAggThreadsReportedAreStarted(t *testing.T) {
	const nodes = 3
	for _, model := range []string{"gravel", "gravel-archive"} {
		for _, threads := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/threads=%d", model, threads), func(t *testing.T) {
				p := timemodel.Default()
				p.AggregatorThreads = threads
				base := drainThreads()
				sys := models.NewSystem(model, core.Config{Nodes: nodes, Params: p})
				defer sys.Close()
				if got := sys.Stats().Agg.Threads; got != threads {
					t.Fatalf("Stats.Agg.Threads = %d, want %d", got, threads)
				}
				// A started goroutine shows its run frame only once it
				// has been scheduled.
				want := nodes * threads
				for t0 := time.Now(); drainThreads()-base != want; runtime.Gosched() {
					if time.Since(t0) > 5*time.Second {
						t.Fatalf("%d drain goroutines running, Stats reports %d per node over %d nodes",
							drainThreads()-base, threads, nodes)
					}
				}
			})
		}
	}
}
