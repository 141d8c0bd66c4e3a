package models_test

import (
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
// by one core per node, so every strategy has to start exactly one
// aggregator thread per node.
func TestAggThreadsReportedAreStarted(t *testing.T) {
	const nodes = 3
	for _, model := range []string{"gravel", "gravel-archive"} {
		t.Run(model+"/threads=1", func(t *testing.T) {
			base := drainThreads()
			sys := models.NewSystem(model, core.Config{Nodes: nodes, Params: timemodel.Default()})
			defer sys.Close()
			// A started goroutine shows its run frame only once it has
			// been scheduled.
			for t0 := time.Now(); drainThreads()-base != nodes; runtime.Gosched() {
				if time.Since(t0) > 5*time.Second {
					t.Fatalf("%d drain goroutines running, want one per node over %d nodes",
						drainThreads()-base, nodes)
				}
			}
		})
	}
}
