// Package stats provides the counters, histograms and small numeric
// helpers used by the experiment harness (Table 5, Figures 12-15).
package stats

import (
	"fmt"
	"math"
	"sync/atomic"
)

// Counter is a concurrent monotonically increasing counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Reset zeroes the counter.
func (c *Counter) Reset() { c.v.Store(0) }

// SizeHist is a concurrent histogram of packet sizes bucketed by power of
// two, plus exact sums for computing means.
type SizeHist struct {
	buckets [32]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
}

// Observe records one value.
func (h *SizeHist) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	b := 0
	for x := v; x > 1 && b < len(h.buckets)-1; x >>= 1 {
		b++
	}
	h.buckets[b].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations.
func (h *SizeHist) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *SizeHist) Sum() int64 { return h.sum.Load() }

// Mean returns the average observation, or 0 with no observations.
func (h *SizeHist) Mean() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Buckets returns the non-empty (lowerBound, count) pairs in ascending
// order.
func (h *SizeHist) Buckets() []BucketCount {
	var out []BucketCount
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n > 0 {
			out = append(out, BucketCount{Lo: 1 << i, N: n})
		}
	}
	return out
}

// BucketCount is one histogram bucket.
type BucketCount struct {
	Lo int64
	N  int64
}

// Reset zeroes the histogram.
func (h *SizeHist) Reset() {
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
	h.count.Store(0)
	h.sum.Store(0)
}

// PerDest tracks wire packet and byte counts by destination node. All
// methods are safe for concurrent use.
type PerDest struct {
	pkts  []atomic.Int64
	bytes []atomic.Int64
}

// NewPerDest creates a per-destination tracker for n nodes.
func NewPerDest(n int) *PerDest {
	return &PerDest{pkts: make([]atomic.Int64, n), bytes: make([]atomic.Int64, n)}
}

// Len returns the number of destinations tracked.
func (d *PerDest) Len() int { return len(d.pkts) }

// Observe records one packet of the given size bound for dest.
func (d *PerDest) Observe(dest int, bytes int64) {
	d.pkts[dest].Add(1)
	d.bytes[dest].Add(bytes)
}

// Packets returns the packet count for dest.
func (d *PerDest) Packets(dest int) int64 { return d.pkts[dest].Load() }

// Bytes returns the byte count for dest.
func (d *PerDest) Bytes(dest int) int64 { return d.bytes[dest].Load() }

// Totals returns the packet and byte counts summed over destinations.
func (d *PerDest) Totals() (pkts, bytes int64) {
	for i := range d.pkts {
		pkts += d.pkts[i].Load()
		bytes += d.bytes[i].Load()
	}
	return pkts, bytes
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
			panic(fmt.Sprintf("stats: GeoMean of non-positive value %v", x))
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
