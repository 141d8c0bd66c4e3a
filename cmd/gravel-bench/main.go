// Command gravel-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	gravel-bench -exp=fig12 [-scale=1.0] [-format=table|csv]
//	gravel-bench -exp=all [-json=results.json] [-cpuprofile=cpu.pprof]
//
// -help lists the experiments (bench.Experiments). An unknown -exp or
// -format value fails with the list of valid ones, mirroring the app
// registry's unknown-app error.
//
// With -json, every experiment's table is also written to the given
// path as machine-readable JSON: its header with each column's clock,
// its rows and its notes.
// The checked-in golden of every modeled and count cell is this output:
//
//	go run ./cmd/gravel-bench -exp all -scale 0.25 -json internal/bench/testdata/modeled.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"gravel/internal/bench"
	"gravel/internal/buildinfo"
	"gravel/internal/cliflags"
)

// expResult is one experiment's machine-readable record.
type expResult struct {
	Name   string        `json:"name"`
	Title  string        `json:"title"`
	Header []string      `json:"header"`
	Clocks []bench.Clock `json:"clocks"`
	Rows   [][]string    `json:"rows"`
	Notes  []string      `json:"notes,omitempty"`
}

// report is the top-level -json document.
type report struct {
	GoVersion   string      `json:"go_version"`
	GoMaxProcs  int         `json:"gomaxprocs"`
	Scale       float64     `json:"scale"`
	Experiments []expResult `json:"experiments"`
}

func main() {
	scale := flag.Float64("scale", 1.0, "workload scale factor (1.0 = default reduced inputs)")
	format := flag.String("format", "table", "output format: table or csv")
	version := flag.Bool("version", false, "print the build-info string and exit")
	var common cliflags.Common
	common.RegisterDefault(true)

	// The -exp help text lists the experiments, and the flags are
	// validated before anything runs, so a typo fails loudly instead of
	// silently printing nothing or the wrong format.
	names := make([]string, len(bench.Experiments))
	for i, e := range bench.Experiments {
		names[i] = e.Name
	}
	known := strings.Join(append(names, "all"), ", ")
	exp := flag.String("exp", "all", "experiment to run ("+known+")")
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.Full("gravel-bench"))
		return
	}
	if !slices.Contains(names, *exp) && *exp != "all" {
		fmt.Fprintf(os.Stderr, "gravel-bench: unknown experiment %q (have %s)\n", *exp, known)
		os.Exit(1)
	}
	if *format != "table" && *format != "csv" {
		fmt.Fprintf(os.Stderr, "gravel-bench: unknown format %q (have table, csv)\n", *format)
		os.Exit(1)
	}
	jsonPath := &common.JSONPath

	sess, err := common.Begin()
	if err != nil {
		fmt.Fprintf(os.Stderr, "gravel-bench: %v\n", err)
		os.Exit(1)
	}

	rep := report{
		GoVersion:  runtime.Version(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Scale:      *scale,
	}

	for _, e := range bench.Experiments {
		if *exp != "all" && *exp != e.Name {
			continue
		}
		start := time.Now()
		t := e.Run(*scale, common.ResolverShards)
		elapsed := time.Since(start)
		if *jsonPath != "" {
			rep.Experiments = append(rep.Experiments, expResult{
				Name:   e.Name,
				Title:  t.Title,
				Header: t.Header,
				Clocks: t.Clocks,
				Rows:   t.Rows,
				Notes:  t.Notes,
			})
		}
		if *format == "csv" {
			t.Fcsv(os.Stdout)
			continue
		}
		t.Fprint(os.Stdout)
		fmt.Printf("  [%s ran in %v]\n", e.Name, elapsed.Round(time.Millisecond))
	}

	if *jsonPath != "" {
		out, err := json.MarshalIndent(&rep, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "gravel-bench: %v\n", err)
			os.Exit(1)
		}
		out = append(out, '\n')
		if err := os.WriteFile(*jsonPath, out, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "gravel-bench: %v\n", err)
			os.Exit(1)
		}
	}

	if err := sess.End(); err != nil {
		fmt.Fprintf(os.Stderr, "gravel-bench: %v\n", err)
		os.Exit(1)
	}
}
