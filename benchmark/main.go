// Command benchmark is the repository's two-clock, layer-by-layer
// benchmark of the Gravel message path (see README.md). It drives four
// seeded workloads through the public gravel API, reports end-to-end
// metrics with the span recorder off, and — in a separate traced run —
// per-layer metrics measured from outside, by timing calls into each
// internal package's exported functions.
//
// The driver contract (BENCHMARK.json) runs it as
//
//	bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// and reads the last line of standard output: one JSON object with the
// keys correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// header identifies a run: the numbers are only comparable between
// runs whose headers agree on everything but the commit.
type header struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Commit     string `json:"commit"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      int    `json:"trace"`
}

// report is the -out document and the input of -compare.
type report struct {
	Header  header   `json:"header"`
	Results []result `json:"results"`
}

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func main() {
	var (
		workload  = flag.String("workload", "all", "workload name, or \"all\" (reps interleaved round-robin across workloads)")
		seed      = flag.Uint64("seed", 13, "stream seed; the same seed gives the same inputs")
		seconds   = flag.Int("seconds", 20, "how long one workload's timed reps run")
		reps      = flag.Int("reps", 0, "fixed timed rep count per workload instead of -seconds (0 = time-based, at least 11)")
		trace     = flag.Int("trace", 0, "0: end-to-end metrics, recorder off; 1: per-layer metrics from the traced run")
		tracefile = flag.String("tracefile", "", "with -trace 1, write the recorded spans to this JSON file")
		out       = flag.String("out", "", "write the full report to this JSON file")
		compare   = flag.String("compare", "", "compare this run against an earlier -out file; exit 1 on a regression")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "benchmark: bad arguments")
		flag.Usage()
		os.Exit(2)
	}
	var run []*spec
	if *workload == "all" {
		for i := range specs {
			run = append(run, &specs[i])
		}
	} else if sp := specByName(*workload); sp != nil {
		run = []*spec{sp}
	} else {
		names := make([]string, len(specs))
		for i := range specs {
			names[i] = specs[i].name
		}
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (have %s, all)\n", *workload, strings.Join(names, ", "))
		os.Exit(2)
	}

	rep := report{Header: header{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: gitCommit(), Seed: *seed, Seconds: *seconds, Trace: *trace,
	}}
	h := rep.Header
	fmt.Printf("# gravel benchmark: nproc=%d GOMAXPROCS=%d go=%s commit=%s seed=%d seconds=%d trace=%d\n",
		h.NProc, h.GOMAXPROCS, h.GoVersion, h.Commit, h.Seed, h.Seconds, h.Trace)
	fmt.Println("# workload metric unit value clock n q1 q3")

	var err error
	if *trace == 1 {
		rep.Results, err = runTraced(run, rep.Header, *tracefile)
	} else {
		rep.Results, err = runUntraced(run, *seed, float64(*seconds), *reps)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	defs := e2eDefs
	if *trace == 1 {
		defs = layerDefs
	}
	for _, r := range rep.Results {
		if len(r.Metrics) > 0 { // a run that failed before measuring reports none
			if err := conform(r.Metrics, defs); err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				os.Exit(1)
			}
		}
		for _, m := range r.Metrics {
			fmt.Printf("%s %s %s %.6g %s n=%d q1=%.6g q3=%.6g\n", r.Workload, m.Name, m.Unit, m.Value, m.Clock, m.N, m.Q1, m.Q3)
		}
		if r.Failure != "" {
			fmt.Printf("# %s FAILED: %s\n", r.Workload, r.Failure)
		}
	}
	if *out != "" {
		if err := writeJSON(*out, rep); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
	}
	regressed := false
	if *compare != "" {
		if regressed, err = compareWith(*compare, rep); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
	}
	failed := printContractLine(rep.Results)
	if failed || regressed {
		os.Exit(1)
	}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// printContractLine prints the driver's result object as the last line
// of standard output and reports whether any step failed. With one
// workload the metric names are bare; with several they are prefixed
// "<workload>/".
func printContractLine(results []result) (failed bool) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{Metrics: map[string]mv{}}
	for _, r := range results {
		line.Attempted += r.Attempted
		line.Failed += r.Failed
		for _, m := range r.Metrics {
			name := m.Name
			if len(results) > 1 {
				name = r.Workload + "/" + name
			}
			line.Metrics[name] = mv{m.Value, m.Unit}
		}
	}
	line.Correct = line.Failed == 0 && line.Attempted > 0
	b, _ := json.Marshal(line) // plain numbers and strings: cannot fail
	fmt.Println(string(b))
	return !line.Correct
}
