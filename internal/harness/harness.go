// Package harness is the single application and model registry behind
// the gravel binaries. Before it existed, cmd/gravel-apps,
// cmd/gravel-node, and internal/bench each kept their own dispatch
// table of application names and workload configurations — three copies
// that had already drifted (gravel-node accepted two apps, the other
// two eleven; the graph-input floors differed). This package owns the
// one table: every app is one row (its entry point, total verifier and
// Table 4 identity), and all three binaries consume it.
//
// An App runs on any rt.System, anywhere an rt.Where names, and every
// model builds over any fabric transport
// (gravel.Config.Model × Transport), so a run is an app row × a model
// row × a fabric × a Where.
package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"gravel/internal/models"
	"gravel/internal/rt"
	"gravel/internal/transport"
)

// Params is the shared workload-parameter surface. The zero value of
// every field means "the app's registered default at Scale" — the same
// defaults the Table 4 bench workloads use — so gravel-apps can drive
// the registry with just -scale while gravel-node passes its explicit
// -table/-updates/-steps/-seed/-verts/-iters values through.
type Params struct {
	// Scale multiplies the app's default input sizes (0 = 1.0).
	Scale float64
	// Seed overrides the app's deterministic seed (0 = app default).
	Seed uint64
	// Table and Updates override the GUPS table size and per-node
	// update count; Steps the kernel-launch count.
	Table, Updates, Steps int
	// Verts and Iters override the random-graph pagerank vertex count
	// and the iteration count of iterative apps.
	Verts, Iters int
}

func (p Params) scale() float64 {
	if p.Scale <= 0 {
		return 1.0
	}
	return p.Scale
}

// s scales a default input size with the historical floor of 64.
func (p Params) s(base int) int {
	v := int(float64(base) * p.scale())
	if v < 64 {
		v = 64
	}
	return v
}

func (p Params) seedOr(def uint64) uint64 {
	if p.Seed != 0 {
		return p.Seed
	}
	return def
}

func (p Params) itersOr(def int) int {
	if p.Iters > 0 {
		return p.Iters
	}
	return def
}

// Result is one app execution's outcome.
type Result struct {
	// Summary is the human-readable one-liner the binaries print.
	Summary string
	// Ns is the virtual time the run consumed.
	Ns float64
	// Check is the run's functional checksum. It is additive across
	// shards: the per-process Check values of a distributed run sum to
	// the single-process run's Check, which is how gravel-node's smoke
	// mode and the invariant table verify bit-identical execution.
	Check uint64
	// Err reports a failed self-verification (e.g. an invalid coloring
	// or a GUPS sum that does not match the update count; the run's
	// numbers are still reported) or a failed checkpoint restore or save.
	Err error
}

// App is one registered application: one row, one entry point.
type App struct {
	// Name is the registry key (-app value).
	Name string
	// Desc is the one-line description -list prints.
	Desc string
	// Bench is the app's Table 4 display name ("" = not one of the
	// nine bench workloads).
	Bench string
	// Run executes the app on sys; at says where (rt.Where): the whole
	// cluster in this process (rt.Whole()), or one node's share of a
	// multi-process run, with the cluster's collectives and, for an
	// Elastic app, its checkpoints. A whole run prints its own summary
	// and verifies itself; a shard's Check values sum to the whole
	// run's Check.
	Run func(sys rt.System, at rt.Where, p Params) Result
	// Elastic marks an app whose Run reads at.Ckpt: it restores from
	// at.Ckpt.Resume, saves through at.Ckpt.Save at step barriers, and
	// stays bit-identical to an undisturbed run.
	Elastic bool
	// Reshardable marks an Elastic app whose checkpoints restore
	// correctly under a *different* node count than the one that saved
	// them (its payloads are keyed by global index and its per-shard
	// work derives from global IDs, not per-node counts). Required for
	// live rescaling; same-count recovery only needs Elastic.
	Reshardable bool
	// VerifyTotal, when non-nil, checks a run's reduced Check total
	// against the app's sequential oracle, with no reference run (nil:
	// callers compare against an in-process reference instead).
	VerifyTotal func(total uint64, p Params, nodes int) error
}

// Apps returns every app in registry order.
func Apps() []*App {
	return append([]*App(nil), registry...)
}

// AppNames returns the app names in registry order.
func AppNames() []string {
	names := make([]string, len(registry))
	for i, a := range registry {
		names[i] = a.Name
	}
	return names
}

// LookupApp resolves an app by name; unknown names get an error that
// lists the valid ones.
func LookupApp(name string) (*App, error) {
	for _, a := range registry {
		if a.Name == name {
			return a, nil
		}
	}
	return nil, fmt.Errorf("unknown app %q (have %s)", name, strings.Join(AppNames(), ", "))
}

// BenchApps returns the nine Table 4 workloads in the paper's order.
func BenchApps() []*App {
	var out []*App
	for _, a := range registry {
		if a.Bench != "" {
			out = append(out, a)
		}
	}
	return out
}

// ModelInfo describes one networking model for -list.
type ModelInfo struct {
	Name string `json:"name"`
	Desc string `json:"desc"`
}

// Models lists every networking model (Figure 15 order, then cpu-only):
// the rows of the models package's table, which is also what
// gravel.Config.Model accepts.
func Models() []ModelInfo {
	out := make([]ModelInfo, len(models.Table))
	for i, m := range models.Table {
		out[i] = ModelInfo{Name: m.Name, Desc: m.Desc}
	}
	return out
}

// AppInfo is the -list view of an App.
type AppInfo struct {
	Name  string `json:"name"`
	Desc  string `json:"desc"`
	Bench string `json:"bench,omitempty"`
}

// ListDoc is the machine-readable -list document.
type ListDoc struct {
	Apps       []AppInfo   `json:"apps"`
	Models     []ModelInfo `json:"models"`
	Transports []string    `json:"transports"`
}

// List builds the -list document: the apps, the models and
// transport.Names.
func List() ListDoc {
	doc := ListDoc{Models: Models(), Transports: transport.Names()}
	for _, a := range registry {
		doc.Apps = append(doc.Apps, AppInfo{Name: a.Name, Desc: a.Desc, Bench: a.Bench})
	}
	return doc
}

// WriteList renders the listing as aligned text.
func WriteList(w io.Writer) {
	doc := List()
	fmt.Fprintln(w, "apps:")
	for _, a := range doc.Apps {
		tag := ""
		if a.Bench != "" {
			tag = "  [Table 4: " + a.Bench + "]"
		}
		fmt.Fprintf(w, "  %-12s %s%s\n", a.Name, a.Desc, tag)
	}
	fmt.Fprintln(w, "models:")
	for _, m := range doc.Models {
		fmt.Fprintf(w, "  %-16s %s\n", m.Name, m.Desc)
	}
	fmt.Fprintf(w, "transports: %s\n", strings.Join(doc.Transports, ", "))
}

// WriteListJSON renders the listing as indented JSON.
func WriteListJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(List())
}

// PrintList implements the binaries' -list flag: aligned text on stdout
// when jsonPath is empty, JSON to stdout when jsonPath is "-", JSON to
// the named file otherwise.
func PrintList(jsonPath string) error {
	switch jsonPath {
	case "":
		WriteList(os.Stdout)
		return nil
	case "-":
		return WriteListJSON(os.Stdout)
	default:
		f, err := os.Create(jsonPath)
		if err != nil {
			return err
		}
		if err := WriteListJSON(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
}
