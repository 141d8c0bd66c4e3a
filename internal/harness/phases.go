package harness

import (
	"fmt"
	"io"

	"gravel/internal/rt"
)

// PhaseReport renders a run's superstep timeline from its per-name
// step sums (Stats.Phases): one (count, total, avg, max) row per step
// name, in first-seen order. It is the -phases output of gravel-apps.
func PhaseReport(w io.Writer, phases []rt.PhaseStats) {
	fmt.Fprintf(w, "  %-14s %8s %12s %12s %12s\n", "phase", "count", "total ms", "avg us", "max us")
	for _, p := range phases {
		fmt.Fprintf(w, "  %-14s %8d %12.3f %12.1f %12.1f\n",
			p.Name, p.Steps, p.VirtualNs/1e6, p.VirtualNs/float64(p.Steps)/1e3, p.MaxNs/1e3)
	}
}
