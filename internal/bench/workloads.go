package bench

import (
	"gravel/internal/harness"
	"gravel/internal/rt"
)

// Workload is one of the nine Table 4 inputs, scaled down ~1000x from
// the paper (see DESIGN.md §6). Run executes it and returns the virtual
// nanoseconds consumed. The workload set and its configurations come
// from the harness registry — the same table gravel-apps and
// gravel-node dispatch through — so the experiments cannot drift from
// what the binaries run.
type Workload struct {
	Name string
	Run  func(sys rt.System) float64
}

// Workloads returns the nine Table 4 inputs at the given scale (1.0 =
// the default ~1000x-reduced sizes).
func Workloads(scale float64) []Workload {
	apps := harness.BenchApps()
	out := make([]Workload, len(apps))
	for i, a := range apps {
		app := a
		out[i] = Workload{Name: app.Bench, Run: func(sys rt.System) float64 {
			return app.Run(sys, rt.Whole(), harness.Params{Scale: scale}).Ns
		}}
	}
	return out
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// Fig13Workloads returns the Figure 13 subset (GUPS, PR-1, PR-2, mer).
func Fig13Workloads(scale float64) []Workload {
	want := map[string]bool{"GUPS": true, "PR-1": true, "PR-2": true, "mer": true}
	var out []Workload
	for _, w := range Workloads(scale) {
		if want[w.Name] {
			out = append(out, w)
		}
	}
	return out
}
