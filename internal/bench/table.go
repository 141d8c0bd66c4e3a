// Package bench is the experiment harness: one driver per table and
// figure of the paper's evaluation (§4.3, §7, §8), each regenerating the
// same rows or series the paper reports, plus ablations of Gravel's own
// design choices. Experiments lists them; cmd/gravel-bench runs it, the
// root bench_test.go times it, and testdata/modeled.json is its output.
package bench

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Clock says what a column's cells are, and so whether a rerun must
// reproduce them: every clock but Host is a function of the inputs.
type Clock string

const (
	Label   Clock = "label"   // a row's name
	Modeled Clock = "modeled" // virtual time under the Table 3 cost model
	Count   Clock = "count"   // events, bytes or lines counted
	Host    Clock = "host"    // wall clock of the machine running it
)

// Table is a formatted experiment result.
type Table struct {
	Title  string
	Header []string
	Clocks []Clock // one per Header column
	Rows   [][]string
	Notes  []string
}

// AddRow appends a row of stringified cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Note appends a footnote.
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "\n== %s ==\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, "  "+strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

// Fcsv renders the table as CSV (header row first, notes as comments).
func (t *Table) Fcsv(w io.Writer) {
	fmt.Fprintf(w, "# %s\n", t.Title)
	for _, n := range t.Notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	writeCSVRow(w, t.Header)
	for _, row := range t.Rows {
		writeCSVRow(w, row)
	}
}

func writeCSVRow(w io.Writer, cells []string) {
	out := make([]string, len(cells))
	for i, c := range cells {
		if strings.ContainsAny(c, ",\"\n") {
			c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
		}
		out[i] = c
	}
	fmt.Fprintln(w, strings.Join(out, ","))
}

// F formats a float compactly.
func F(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 100:
		return fmt.Sprintf("%.0f", v)
	case v >= 1:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.3g", v)
	}
}

// GeoMean returns the geometric mean of xs. It panics if any value is
// non-positive, matching how the paper's geo-mean bars are computed.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		if x <= 0 {
			panic(fmt.Sprintf("bench: GeoMean of non-positive value %v", x))
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// HumanBytes formats a byte count like "64 kB".
func HumanBytes(b int64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%.4g MB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.4g kB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%d B", b)
	}
}
