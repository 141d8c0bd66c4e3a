// Command gravel-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	gravel-bench -exp=fig12 [-scale=1.0]
//	gravel-bench -exp=all [-json=results.json] [-cpuprofile=cpu.pprof]
//
// -help lists the experiments. An unknown -exp name fails with the list
// of valid names, mirroring the app registry's unknown-app error.
//
// With -json, every experiment's table is also written to the given
// path as machine-readable JSON, with per-experiment wall time and
// allocation totals (MemStats deltas) alongside a headline metric —
// the first numeric cell of the first row — so CI can diff runs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"gravel/internal/bench"
	"gravel/internal/buildinfo"
	"gravel/internal/cliflags"
)

// expResult is one experiment's machine-readable record.
type expResult struct {
	Name           string     `json:"name"`
	Title          string     `json:"title"`
	HeadlineMetric string     `json:"headline_metric"`
	HeadlineValue  float64    `json:"headline_value"`
	NsPerOp        int64      `json:"ns_per_op"`
	BytesPerOp     uint64     `json:"bytes_per_op"`
	AllocsPerOp    uint64     `json:"allocs_per_op"`
	Header         []string   `json:"header"`
	Rows           [][]string `json:"rows"`
	Notes          []string   `json:"notes,omitempty"`
}

// report is the top-level -json document.
type report struct {
	GeneratedUnix int64       `json:"generated_unix"`
	GoVersion     string      `json:"go_version"`
	GoMaxProcs    int         `json:"gomaxprocs"`
	Scale         float64     `json:"scale"`
	Experiments   []expResult `json:"experiments"`
}

// headline extracts a deterministic headline metric from a table: the
// first cell of the first row that parses as a number (column 0 is the
// row label), named "<row label>: <column header>".
func headline(t *bench.Table) (metric string, value float64) {
	for _, row := range t.Rows {
		for i := 1; i < len(row); i++ {
			v, err := strconv.ParseFloat(strings.TrimSuffix(row[i], "x"), 64)
			if err != nil {
				continue
			}
			col := ""
			if i < len(t.Header) {
				col = t.Header[i]
			}
			return fmt.Sprintf("%s: %s", row[0], col), v
		}
	}
	return "", 0
}

func main() {
	scale := flag.Float64("scale", 1.0, "workload scale factor (1.0 = default reduced inputs)")
	format := flag.String("format", "table", "output format: table or csv")
	version := flag.Bool("version", false, "print the build-info string and exit")
	var common cliflags.Common
	common.RegisterDefault(true)

	// exps is the experiment registry, in presentation order, and the
	// one place the names are written: the -exp help text lists them,
	// and the flag is validated against them before anything runs, so a
	// typo fails loudly instead of silently printing nothing.
	exps := []struct {
		name string
		f    func() *bench.Table
	}{
		{"fig6", func() *bench.Table { return bench.Fig6() }},
		{"fig8", func() *bench.Table { return bench.Fig8() }},
		{"table2", func() *bench.Table { return bench.Table2() }},
		{"table5", func() *bench.Table { return bench.Table5(*scale, nil) }},
		{"fig12", func() *bench.Table { return bench.Fig12(*scale, nil) }},
		{"fig13", func() *bench.Table { return bench.Fig13(*scale, nil) }},
		{"fig14", func() *bench.Table { return bench.Fig14(*scale, nil) }},
		{"fig15", func() *bench.Table { return bench.Fig15(*scale, nil) }},
		{"sec82", func() *bench.Table { return bench.Sec82(*scale, nil) }},
		{"ablations", func() *bench.Table { return bench.Ablations(*scale, nil) }},
		{"resolver", func() *bench.Table { return bench.Resolver(*scale, nil, common.ResolverShards) }},
		{"pgas", func() *bench.Table { return bench.PGAS(*scale, nil) }},
		{"aggstrategy", func() *bench.Table { return bench.AggStrategy(*scale, nil) }},
	}
	names := make([]string, len(exps))
	for i, e := range exps {
		names[i] = e.name
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
	jsonPath := &common.JSONPath

	sess, err := common.Begin()
	if err != nil {
		fmt.Fprintf(os.Stderr, "gravel-bench: %v\n", err)
		os.Exit(1)
	}

	rep := report{
		GeneratedUnix: time.Now().Unix(),
		GoVersion:     runtime.Version(),
		GoMaxProcs:    runtime.GOMAXPROCS(0),
		Scale:         *scale,
	}

	run := func(name string, f func() *bench.Table) {
		if *exp != "all" && *exp != name {
			return
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		t := f()
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		if *jsonPath != "" {
			metric, value := headline(t)
			rep.Experiments = append(rep.Experiments, expResult{
				Name:           name,
				Title:          t.Title,
				HeadlineMetric: metric,
				HeadlineValue:  value,
				NsPerOp:        elapsed.Nanoseconds(),
				BytesPerOp:     after.TotalAlloc - before.TotalAlloc,
				AllocsPerOp:    after.Mallocs - before.Mallocs,
				Header:         t.Header,
				Rows:           t.Rows,
				Notes:          t.Notes,
			})
		}
		if *format == "csv" {
			t.Fcsv(os.Stdout)
			return
		}
		t.Fprint(os.Stdout)
		fmt.Printf("  [%s ran in %v]\n", name, elapsed.Round(time.Millisecond))
	}

	for _, e := range exps {
		run(e.name, e.f)
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
