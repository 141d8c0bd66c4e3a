package stats

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Load() != 5 {
		t.Fatalf("Load = %d", c.Load())
	}
	c.Reset()
	if c.Load() != 0 {
		t.Fatal("Reset failed")
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Load() != 8000 {
		t.Fatalf("Load = %d", c.Load())
	}
}

func TestSizeHist(t *testing.T) {
	var h SizeHist
	for _, v := range []int64{1, 2, 3, 64, 65536} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.Sum() != 65606 {
		t.Fatalf("Sum = %d", h.Sum())
	}
	if got := h.Mean(); math.Abs(got-65606.0/5) > 1e-9 {
		t.Fatalf("Mean = %v", got)
	}
	b := h.Buckets()
	if len(b) == 0 || b[0].Lo != 1 {
		t.Fatalf("Buckets = %v", b)
	}
	h.Reset()
	if h.Count() != 0 || h.Mean() != 0 {
		t.Fatal("Reset failed")
	}
}

func TestSizeHistNegativeClamped(t *testing.T) {
	var h SizeHist
	h.Observe(-5)
	if h.Sum() != 0 || h.Count() != 1 {
		t.Fatalf("negative observation mishandled: sum=%d count=%d", h.Sum(), h.Count())
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
