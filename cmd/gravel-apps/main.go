// Command gravel-apps runs any registered application on any
// networking model at any cluster size, printing functional results,
// virtual time and network statistics. The app and model tables come
// from internal/harness — the same registry gravel-node and
// gravel-bench use — so the three binaries cannot drift.
//
// Usage:
//
//	gravel-apps -app=gups -nodes=8 -model=gravel [-scale=1.0]
//	gravel-apps -app=sssp-1 -nodes=4 -model=coprocessor
//	gravel-apps -list [-json -]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"gravel"
	"gravel/internal/buildinfo"
	"gravel/internal/cliflags"
	"gravel/internal/harness"
	"gravel/internal/rt"
)

// appReport is the -json document: the run's identity, summary and
// checksum plus the full versioned Stats snapshot. Check is the app's
// additive checksum — the same value cluster runs reduce — so scripts
// can compare a service or cluster result against a direct run.
type appReport struct {
	App       string   `json:"app"`
	Model     string   `json:"model"`
	Nodes     int      `json:"nodes"`
	Scale     float64  `json:"scale"`
	Summary   string   `json:"summary"`
	Check     uint64   `json:"check"`
	VirtualNs float64  `json:"virtual_ns"`
	WallNs    int64    `json:"wall_ns"`
	Stats     rt.Stats `json:"stats"`
}

func main() {
	app := flag.String("app", "gups", "application to run (see -list)")
	model := flag.String("model", "gravel", "networking model (see -list)")
	nodes := flag.Int("nodes", 8, "cluster size")
	scale := flag.Float64("scale", 1.0, "input scale factor")
	phases := flag.Bool("phases", false, "print the per-superstep virtual-time breakdown")
	list := flag.Bool("list", false, "list registered apps, models and transports, then exit")
	version := flag.Bool("version", false, "print the build-info string and exit")
	var common cliflags.Common
	common.RegisterDefault(true)
	flag.Parse()

	if *version {
		fmt.Println(buildinfo.Full("gravel-apps"))
		return
	}

	if *list {
		if err := harness.PrintList(common.JSONPath); err != nil {
			fmt.Fprintln(os.Stderr, "gravel-apps:", err)
			os.Exit(1)
		}
		return
	}

	a, err := harness.LookupApp(*app)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gravel-apps:", err)
		os.Exit(2)
	}

	sess, err := common.Begin()
	if err != nil {
		fmt.Fprintln(os.Stderr, "gravel-apps:", err)
		os.Exit(1)
	}

	sys, err := gravel.NewChecked(gravel.Config{Model: *model, Nodes: *nodes, ResolverShards: common.ResolverShards})
	if err != nil {
		fmt.Fprintln(os.Stderr, "gravel-apps:", err)
		os.Exit(2)
	}
	sess.SetStats(func() *rt.Stats {
		st := sys.Stats()
		return &st
	})

	start := time.Now()
	res := a.Run(sys, rt.Whole(), harness.Params{Scale: *scale})
	wall := time.Since(start)

	st := sys.Stats()
	fmt.Printf("app=%s model=%s nodes=%d scale=%g\n", *app, *model, *nodes, *scale)
	fmt.Printf("  %s\n", res.Summary)
	fmt.Printf("  virtual time: %.3f ms   (simulated in %v)\n", sys.VirtualTimeNs()/1e6, wall.Round(time.Millisecond))
	fmt.Printf("  remote accesses: %.1f%%   avg wire packet: %.0f B   agg busy: %.0f%%\n",
		100*st.Queue.RemoteFrac(), st.Transport.AvgPacketBytes, 100*st.Agg.BusyFrac)
	if *phases {
		harness.PhaseReport(os.Stdout, st.Phases)
	}
	if common.JSONPath != "" {
		rep := appReport{
			App: *app, Model: *model, Nodes: *nodes, Scale: *scale,
			Summary: res.Summary, Check: res.Check,
			VirtualNs: sys.VirtualTimeNs(), WallNs: wall.Nanoseconds(),
			Stats: st,
		}
		if err := cliflags.WriteJSON(common.JSONPath, rep); err != nil {
			fmt.Fprintln(os.Stderr, "gravel-apps:", err)
			os.Exit(1)
		}
	}
	sys.Close()
	if err := sess.End(); err != nil {
		fmt.Fprintln(os.Stderr, "gravel-apps:", err)
		os.Exit(1)
	}
	if res.Err != nil {
		fmt.Fprintln(os.Stderr, "gravel-apps: verification failed:", res.Err)
		os.Exit(1)
	}
}
