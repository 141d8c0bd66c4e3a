package main

import (
	"sort"
	"time"
)

// span is one timed interval recorded by the benchmark around a call
// into the program: name, start and end (ns since the recorder was
// created), the span that caused it (-1 for a root) and the rep it
// belongs to.
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Rep    int    `json:"rep"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory; they are written out when the
// benchmark ends. It is used from one goroutine at a time. A nil or
// switched-off recorder records nothing, so untraced reps pay one
// branch per call site.
type recorder struct {
	on    bool
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) begin(name string, parent, rep int) int {
	if r == nil || !r.on {
		return -1
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{Name: name, ID: id, Parent: parent, Rep: rep, Start: time.Since(r.t0).Nanoseconds()})
	return id
}

func (r *recorder) end(id int) {
	if id < 0 {
		return
	}
	r.spans[id].End = time.Since(r.t0).Nanoseconds()
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of it its child spans cover (overlapping
// children are counted once, and clipped to the parent).
func selfTimes(spans []span) map[string]int64 {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[string]int64)
	for _, s := range spans {
		out[s.Name] += (s.End - s.Start) - covered(s.Start, s.End, kids[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals
// inside [lo, hi].
func covered(lo, hi int64, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	edge := lo
	for _, k := range kids {
		a, b := max(k.Start, edge), min(k.End, hi)
		if b > a {
			total += b - a
			edge = b
		}
	}
	return total
}
