package main

import "sort"

// Stream generation. Everything a kernel reads is a table built here
// from the seed during set-up, so generator cost is never timed and the
// program under test sees only generated inputs.

const (
	wgSize = 256 // lanes per work-group (4 wavefronts, the paper's best)

	tableSize = 1 << 18 // words = 2 MiB: cache-resident, so the message path is measured, not DRAM
	nodes     = 2       // = nproc on the reference box
)

// rng is splitmix64: tiny, seedable, and good enough that the low bits
// used for ownership and banking are unbiased.
type rng uint64

func (r *rng) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// intn returns a uniform value in [0, n) (n far below 2^32, so the
// modulo bias is below 2^-32).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// perm returns a seeded Fisher-Yates permutation of 0..n-1.
func (r *rng) perm(n int) []uint32 {
	p := make([]uint32, n)
	for i := range p {
		p[i] = uint32(i)
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// zipf draws ranks 0..n-1 with P(rank k) proportional to 1/(k+1)
// (exponent s = 1, which math/rand's Zipf cannot express) by inverting
// the exact harmonic CDF.
type zipf struct{ cdf []float64 }

func newZipf(n int) *zipf {
	cdf := make([]float64, n)
	h := 0.0
	for k := range cdf {
		h += 1 / float64(k+1)
		cdf[k] = h
	}
	for k := range cdf {
		cdf[k] /= h
	}
	return &zipf{cdf: cdf}
}

func (z *zipf) draw(r *rng) int {
	u := float64(r.next()>>11) / (1 << 53)
	k := sort.SearchFloat64s(z.cdf, u)
	if k >= len(z.cdf) {
		k = len(z.cdf) - 1
	}
	return k
}

// Verbs of a round. Bulk workloads issue Inc every round; the mixed
// workload rotates Inc, Put, AM, Inc (50/25/25).
const (
	verbInc = iota
	verbPut
	verbAM
)

// shape is the seed-independent geometry of a workload's step.
type shape struct {
	wgs         int   // work-groups per node per step
	rounds      []int // verb of each round (one verb call per WG per round)
	stepsPerRep int
	distinct    int // distinct step streams; step s replays stream s % distinct
}

// stream is the pre-generated input of one workload: for every distinct
// step, node, work-group, round and lane, the target index, the value
// and (for AMs) the destination node. Tables are flat; at() gives the
// offset of lane 0.
type stream struct {
	sh   shape
	idx  []uint32 // Inc/Put: global word index; AM: argument a
	val  []uint32 // Inc: delta (always 1); Put: stored value; AM: argument b; nil when every round is Inc
	dest []uint8  // AM destination node; nil when the shape has no AM round

	// Oracle, all per distinct step d:
	msgs   []int64    // messages the step puts on the message path (local Puts are direct stores)
	incs   []int64    // sum of Inc deltas = growth of the table sum
	putSum []uint64   // sum of the Put-slot array after the step (every slot is rewritten each step)
	amSum  [][2]int64 // growth of node n's AM accumulator
}

func (s *stream) at(d, node, wg, round int) int {
	return (((d*nodes+node)*s.sh.wgs+wg)*len(s.sh.rounds) + round) * wgSize
}

func (s *stream) hasVerb(v int) bool {
	for _, r := range s.sh.rounds {
		if r == v {
			return true
		}
	}
	return false
}

// putSlots is the length of the Put target array: one slot per lane of
// the step's Put round across the cluster, so each step writes every
// slot exactly once and the array's final content does not depend on
// delivery order.
func (s *stream) putSlots() int { return nodes * s.sh.wgs * wgSize }

// Index distributions.
const (
	distUniform = iota // uniform over the whole table: ~50 % node-local
	distPeer           // uniform over the peer's half: 100 % remote
	distZipf           // zipf(s=1) through a seeded rank->index permutation
)

// genStream builds a workload's tables from the seed. The same seed
// always gives the same tables.
func genStream(seed uint64, name string, sh shape, dist int) *stream {
	r := rng(seed)
	for _, c := range []byte(name) { // decorrelate workloads sharing a seed
		r = rng(r.next() ^ uint64(c))
	}
	n := sh.distinct * nodes * sh.wgs * len(sh.rounds) * wgSize
	s := &stream{
		sh:     sh,
		idx:    make([]uint32, n),
		msgs:   make([]int64, sh.distinct),
		incs:   make([]int64, sh.distinct),
		putSum: make([]uint64, sh.distinct),
		amSum:  make([][2]int64, sh.distinct),
	}
	if s.hasVerb(verbPut) || s.hasVerb(verbAM) {
		s.val = make([]uint32, n)
	}
	if s.hasVerb(verbAM) {
		s.dest = make([]uint8, n)
	}
	var z *zipf
	var rank2idx []uint32
	if dist == distZipf {
		z = newZipf(tableSize)
		rank2idx = r.perm(tableSize)
	}
	half := tableSize / nodes
	for d := 0; d < sh.distinct; d++ {
		var slots []uint32
		if s.hasVerb(verbPut) {
			slots = r.perm(s.putSlots())
		}
		slotHalf := s.putSlots() / nodes
		for node := 0; node < nodes; node++ {
			for wg := 0; wg < sh.wgs; wg++ {
				for round, verb := range sh.rounds {
					base := s.at(d, node, wg, round)
					for l := 0; l < wgSize; l++ {
						switch verb {
						case verbInc:
							var i int
							switch dist {
							case distUniform:
								i = r.intn(tableSize)
							case distPeer:
								i = (1-node)*half + r.intn(half)
							case distZipf:
								i = int(rank2idx[z.draw(&r)])
							}
							s.idx[base+l] = uint32(i)
							if s.val != nil {
								s.val[base+l] = 1
							}
							s.incs[d]++
							s.msgs[d]++
						case verbPut:
							slot := slots[(node*sh.wgs+wg)*wgSize+l]
							v := uint32(r.next() >> 40)
							s.idx[base+l] = slot
							s.val[base+l] = v
							s.putSum[d] += uint64(v)
							if int(slot)/slotHalf != node {
								s.msgs[d]++
							}
						case verbAM:
							to := r.intn(nodes)
							b := uint32(r.next() >> 48)
							s.idx[base+l] = uint32(r.next() >> 32)
							s.val[base+l] = b
							s.dest[base+l] = uint8(to)
							s.amSum[d][to] += int64(b)
							s.msgs[d]++
						}
					}
				}
			}
		}
	}
	return s
}

// repMsgs is the number of messages one rep (stepsPerRep consecutive
// steps starting at step 0 of the cycle) puts on the message path.
func (s *stream) repMsgs() int64 {
	var m int64
	for st := 0; st < s.sh.stepsPerRep; st++ {
		m += s.msgs[st%s.sh.distinct]
	}
	return m
}
