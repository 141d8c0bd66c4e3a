package bench

import (
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// Table2 reproduces Table 2 (GUPS lines of code per model) in the form
// this reproduction admits: the paper counts per-model application code;
// here applications are written once against rt.System and the verbs
// once in core's front-end, so the burden a model imposes shows up as
// the size of its offloader on top of that shared path. Both our
// measured counts and the paper's are printed. The counts are in the
// golden (testdata/modeled.json): a change to a counted file
// regenerates it.
func Table2() *Table {
	t := &Table{
		Title:  "Table 2: GUPS code size per model (lines)",
		Header: []string{"model", "this repo (front-end+offloader)", "paper (host+GPU app code)"},
		Clocks: []Clock{Label, Count, Count},
	}
	rows := []struct {
		model string
		files []string
		paper string
	}{
		{"msg-per-lane & Gravel", []string{"internal/core/ctx.go", "internal/apps/gups/gups.go"}, "193"},
		{"coprocessor", []string{"internal/core/ctx.go", "internal/models/coprocessor.go", "internal/models/sendbuf.go", "internal/apps/gups/gups.go"}, "342"},
		{"coalesced APIs", []string{"internal/core/ctx.go", "internal/models/coalesced.go", "internal/models/sendbuf.go", "internal/apps/gups/gups.go"}, "318"},
	}
	root := repoRoot()
	for _, r := range rows {
		total := 0
		for _, f := range r.files {
			total += countLines(filepath.Join(root, f))
		}
		t.AddRow(r.model, strconv.Itoa(total), r.paper)
	}
	t.Note("paper's counts are GUPS application code; ours are the verb front-end with the queue offloader (core/ctx.go, shared), the model's own offloader, and the (shared) GUPS app — the ordering (coprocessor > coalesced > gravel) is the comparable signal")
	return t
}

// repoRoot locates the repository root relative to this source file.
func repoRoot() string {
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		return "."
	}
	return filepath.Dir(filepath.Dir(filepath.Dir(file)))
}

// countLines returns the number of non-blank lines in a file, 0 if
// unreadable (e.g. when the binary runs outside the repo).
func countLines(path string) int {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	n := 0
	for _, ln := range strings.Split(string(data), "\n") {
		if strings.TrimSpace(ln) != "" {
			n++
		}
	}
	return n
}
