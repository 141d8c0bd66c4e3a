package bench

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func sampleTable() *Table {
	t := &Table{Title: "T", Header: []string{"a", "b"}}
	t.AddRow("x", "1.5")
	t.AddRow("needs,quote", "2")
	t.Note("n%d", 1)
	return t
}

func TestTableFprint(t *testing.T) {
	var b strings.Builder
	sampleTable().Fprint(&b)
	out := b.String()
	for _, want := range []string{"== T ==", "a", "x", "1.5", "note: n1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in output:\n%s", want, out)
		}
	}
}

func TestTableFcsv(t *testing.T) {
	var b strings.Builder
	sampleTable().Fcsv(&b)
	out := b.String()
	if !strings.Contains(out, "# T\n") || !strings.Contains(out, "a,b\n") {
		t.Fatalf("csv header wrong:\n%s", out)
	}
	if !strings.Contains(out, "\"needs,quote\",2") {
		t.Fatalf("csv quoting wrong:\n%s", out)
	}
}

func TestF(t *testing.T) {
	for in, want := range map[float64]string{0: "0", 123.4: "123", 1.234: "1.23", 0.0123: "0.0123"} {
		if got := F(in); got != want {
			t.Errorf("F(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{2, 8}); math.Abs(got-4) > 1e-12 {
		t.Fatalf("GeoMean(2,8) = %v", got)
	}
	if GeoMean(nil) != 0 {
		t.Fatal("GeoMean(nil) != 0")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("GeoMean of non-positive did not panic")
		}
	}()
	GeoMean([]float64{1, 0})
}

// TestGeoMeanProperty: geomean lies between min and max.
func TestGeoMeanProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		lo, hi := math.Inf(1), 0.0
		for i, r := range raw {
			xs[i] = float64(r) + 1
			lo = math.Min(lo, xs[i])
			hi = math.Max(hi, xs[i])
		}
		g := GeoMean(xs)
		return g >= lo-1e-9 && g <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHumanBytes(t *testing.T) {
	for in, want := range map[int64]string{
		8:        "8 B",
		64 << 10: "64 kB",
		1 << 20:  "1 MB",
	} {
		if got := HumanBytes(in); got != want {
			t.Errorf("HumanBytes(%d) = %q, want %q", in, got, want)
		}
	}
}
