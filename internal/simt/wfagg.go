package simt

// WFAggregate performs a warp-aggregated offload (grape's AddBytesWarp
// pattern): for each wavefront, the active lanes ballot, a per-
// destination leader reserves space for the whole mask with one atomic,
// and every lane copies its record at its lane offset. f is invoked
// once per (wavefront, distinct destination), destinations in the order
// their leaders (first active lane) appear, with the participating
// lanes ascending; the slice is reused across invocations and must not
// be retained.
//
// Time model, per active wavefront:
//
//   - 5 vector instructions on that WF alone: 2 for the ballot +
//     intra-WF prefix sum that elects leaders and assigns lane offsets,
//     3 for each lane's 24-byte record copy into the reserved span.
//   - 1 global atomic per distinct destination (the leader's
//     reservation), charged via ChargeAtomics — so a skewed destination
//     distribution costs fewer reservations than a uniform one, which
//     is exactly the effect the aggstrategy experiment measures.
//   - a divergence event when the WF is partially active, as with
//     VectorMasked.
//
// Host cost: the ballot is a constant amount of work per lane on a GPU,
// and so it is here. destOf is evaluated exactly once per active lane,
// into group scratch, and each wavefront is grouped by a counting pass
// (wfScratch) — O(width) whatever the number of distinct destinations.
func (g *Group) WFAggregate(active []bool, destOf func(lane int) int, f func(dest int, lanes []int)) {
	if cap(g.wfDests) < g.Size {
		g.wfDests = make([]int, g.Size)
	}
	dests := g.wfDests[:g.Size]
	for l, on := range active[:g.Size] {
		if on {
			dests[l] = destOf(l)
		}
	}
	g.WFAggregateDests(active, dests, f)
}

// WFAggregateDests is WFAggregate for a caller that already holds every
// active lane's destination in a lane-indexed slice (entries of
// inactive lanes are not read).
func (g *Group) WFAggregateDests(active []bool, dests []int, f func(dest int, lanes []int)) {
	w := g.dev.Arch.WFWidth
	s := &g.wf
	s.size(w)
	for base := 0; base < g.Size; base += w {
		end := min(base+w, g.Size)
		count := s.count(active[base:end], dests[base:end])
		if count == 0 {
			continue
		}
		g.chargeVectorWFs(5, 1)
		if count < end-base {
			g.divergedOps++
		}
		lanes := s.fill(active[base:end], base, count)
		start := 0
		for i, d := range s.dest {
			g.ChargeAtomics(1)
			f(d, lanes[start:s.next[i]])
			start = s.next[i]
		}
	}
}

// wfScratch is the per-group state of WFAggregate's counting pass over
// one wavefront: count finds each active lane's destination class
// (classes numbered in first-seen order) through a small open-addressed
// table and sizes the classes; fill turns the sizes into offsets and
// drops every lane into its class's run of lanes. Every array is
// WFWidth-sized (the table twice that) and allocated once per group;
// nothing carries over from one wavefront to the next except the
// table's stamps, which a wavefront invalidates by taking a new epoch.
type wfScratch struct {
	dest  []int   // class -> destination, first-seen order; len = classes
	next  []int   // class -> lane count, then (after fill) the end of its run
	class []int32 // lane - base -> class
	lanes []int   // the wavefront's active lanes, class-major, ascending within a class

	slots []wfSlot // open addressing, linear probing, load <= 1/2
	shift uint     // 64 - log2(len(slots))
	epoch uint32   // a slot is live iff its stamp equals epoch
}

type wfSlot struct {
	dest  int
	class int32
	stamp uint32
}

// size readies the scratch for wavefronts of w lanes.
func (s *wfScratch) size(w int) {
	if len(s.class) == w {
		return
	}
	s.dest = make([]int, 0, w)
	s.next = make([]int, w)
	s.class = make([]int32, w)
	s.lanes = make([]int, w)
	n, bits := 2, uint(1)
	for n < 2*w {
		n, bits = n<<1, bits+1
	}
	s.slots = make([]wfSlot, n)
	s.shift = 64 - bits
	s.epoch = 0
}

// count classifies one wavefront's active lanes by destination and
// returns how many are active.
func (s *wfScratch) count(active []bool, dests []int) (n int) {
	s.dest = s.dest[:0]
	s.epoch++
	if s.epoch == 0 { // wrapped: stamps from 2^32 wavefronts ago would read live
		clear(s.slots)
		s.epoch = 1
	}
	mask := uint64(len(s.slots) - 1)
	for l, on := range active {
		if !on {
			continue
		}
		n++
		d := dests[l]
		h := uint64(d) * 0x9E3779B97F4A7C15 >> s.shift
		for {
			sl := &s.slots[h]
			if sl.stamp != s.epoch {
				*sl = wfSlot{dest: d, class: int32(len(s.dest)), stamp: s.epoch}
				s.next[len(s.dest)] = 0
				s.dest = append(s.dest, d)
			} else if sl.dest != d {
				h = (h + 1) & mask
				continue
			}
			s.class[l] = sl.class
			s.next[sl.class]++
			break
		}
	}
	return n
}

// fill lays the wavefront's n active lanes (numbered from base) out
// class by class and returns them; class i's lanes end at s.next[i].
func (s *wfScratch) fill(active []bool, base, n int) []int {
	off := 0
	for i := range s.dest {
		off, s.next[i] = off+s.next[i], off
	}
	for l, on := range active {
		if on {
			c := s.class[l]
			s.lanes[s.next[c]] = base + l
			s.next[c]++
		}
	}
	return s.lanes[:n]
}
