// Phase 2 of Meraculous [33]: traverse the distributed k-mer hash table
// built by phase 1, stitching uniquely-extendable (UU) k-mers into
// contigs. The paper leaves this phase as future work because of its
// branch divergence (§6); here it is built on the runtime's active
// message request/reply capability (rt.System.HostAM): the GPU seeds
// one walker per contig start, and each walker advances through the
// distributed table as a chain of active messages — lookup request to
// the next k-mer's owner, reply to the walker's home node — all
// resolved within one Step's quiescence cascade, exactly the
// communication structure of the UPC implementation the paper cites.
package mer

import "gravel/internal/rt"

// Phase2Result reports the traversal.
type Phase2Result struct {
	Ns float64
	// Contigs is the number of maximal UU chains found.
	Contigs int64
	// TotalLen is the summed length (in k-mers) of all contigs.
	TotalLen int64
	// MaxLen is the longest contig.
	MaxLen int64
	// UU is the number of uniquely-extendable k-mers in the table.
	UU int64
}

// walker is one in-flight contig traversal, owned by the node that
// found its seed; only that node's network thread mutates it.
type walker struct {
	cur     uint64 // last confirmed k-mer of the contig
	pending uint64 // k-mer we are waiting on
	length  int64
}

// phase2State is shared across the AM handlers; element i is only
// touched by node i's network thread (or, for seeding, node i's GPU
// during the seed kernel, which cannot overlap the handlers that read
// it because walkers are registered before any request is offloaded).
type phase2State struct {
	notStart [][]bool // per node, per table slot
	walkers  [][]walker
	contigs  []int64
	totalLen []int64
	maxLen   []int64
}

// successor returns the k-mer reached by extending right with base rb.
func successor(kmer uint64, rb uint64, mask uint64) uint64 {
	return (kmer<<2 | rb) & mask
}

// firstBase returns kmer's leftmost base.
func firstBase(kmer uint64, k int) uint64 {
	return kmer >> (2 * (k - 1))
}

// RunPhase2 traverses the tables built by a prior Run on the same
// system. The AM handlers used here must be registered before the
// first Step of the run, so callers use RunFull; this function is
// internal glue exposed for tests via RunFull.
func runPhase2(sys rt.System, cfg Config, tables []*Table, mark, walkReq, walkRep uint8, st *phase2State, at rt.Where) Phase2Result {
	nodes := sys.Nodes()
	kmerMask := uint64(1)<<(2*cfg.K) - 1
	k := cfg.K

	grid := make([]int, nodes)
	for i := range grid {
		if at.Runs(i) {
			grid[i] = tables[i].Slots()
		}
	}

	t0 := sys.VirtualTimeNs()

	// Step 1: every UU k-mer marks its successor as not-a-start (the
	// successor's chain continues from here, so it cannot begin one).
	sys.Step("mer-mark", grid, 0, func(c rt.Ctx) {
		wg := c.Group()
		node := c.Node()
		t := tables[node]
		dst := make([]int, wg.Size)
		a := make([]uint64, wg.Size)
		b := make([]uint64, wg.Size)
		active := make([]bool, wg.Size)
		wg.VectorN(4, func(l int) {
			slot := wg.GlobalID(l)
			kmer, _, ext, present := t.At(slot)
			active[l] = false
			if !present || !IsUU(ext) {
				return
			}
			next := successor(kmer, baseOf(ext&0xf), kmerMask)
			active[l] = true
			dst[l] = Owner(next, nodes)
			a[l] = next
			b[l] = firstBase(kmer, k)
		})
		wg.ChargeMemDivergence(wg.ActiveLaneCount())
		c.AM(mark, dst, a, b, active)
	})

	// Step 2: seed one walker per remaining start and chase the chain
	// via request/reply active messages; the Step's quiescence cascade
	// runs every walk to completion.
	sys.Step("mer-walk", grid, 0, func(c rt.Ctx) {
		wg := c.Group()
		node := c.Node()
		t := tables[node]
		dst := make([]int, wg.Size)
		a := make([]uint64, wg.Size)
		b := make([]uint64, wg.Size)
		active := make([]bool, wg.Size)
		wg.VectorN(6, func(l int) {
			slot := wg.GlobalID(l)
			kmer, _, ext, present := t.At(slot)
			active[l] = false
			if !present || !IsUU(ext) || st.notStart[node][slot] {
				return
			}
			next := successor(kmer, baseOf(ext&0xf), kmerMask)
			st.walkers[node][slot] = walker{cur: kmer, pending: next, length: 1}
			active[l] = true
			dst[l] = Owner(next, nodes)
			a[l] = next
			// walker reference: home node and slot, plus the current
			// k-mer's first base for the continuity check.
			b[l] = uint64(node)<<40 | uint64(slot)<<2 | firstBase(kmer, k)
		})
		wg.ChargeMemDivergence(wg.ActiveLaneCount())
		c.AM(walkReq, dst, a, b, active)
	})

	ns := sys.VirtualTimeNs() - t0

	var res Phase2Result
	res.Ns = ns
	// In a distributed run only the hosted node's state is populated in
	// this process (walkers complete on their home node; tables hold only
	// owned k-mers), so Contigs, TotalLen, and UU sum across shards to
	// the full-run values. MaxLen is the shard-local maximum.
	for i := 0; i < nodes; i++ {
		if !at.Runs(i) {
			continue
		}
		res.Contigs += st.contigs[i]
		res.TotalLen += st.totalLen[i]
		if st.maxLen[i] > res.MaxLen {
			res.MaxLen = st.maxLen[i]
		}
		for s := 0; s < tables[i].Slots(); s++ {
			if _, _, ext, ok := tables[i].At(s); ok && IsUU(ext) {
				res.UU++
			}
		}
	}
	return res
}

// RunFull executes phase 1 (table construction) and phase 2 (contig
// traversal) on every node of the given system.
func RunFull(sys rt.System, cfg Config) (Result, Phase2Result) {
	return RunFullAt(sys, cfg, rt.Whole())
}

// RunFullAt is both phases: at says which node's share this call
// launches. The walk's request/reply active messages travel the fabric
// between processes and each walker completes on its home node, so
// shard results sum across processes to the whole run's values.
func RunFullAt(sys rt.System, cfg Config, at rt.Where) (Result, Phase2Result) {
	nodes := sys.Nodes()
	kmerMask := uint64(1)<<(2*cfg.K) - 1
	k := cfg.K

	// Tables and the phase-2 state are fully allocated before phase 1
	// launches. The AM handlers below close over them and, in a
	// multi-process run, a faster peer's mark/walk messages can arrive
	// the moment that peer clears the preceding step's global barrier —
	// while this process is still in host code. Allocating before our
	// own first Step puts every allocation on the safe side of that
	// barrier.
	tables := buildTables(&cfg, nodes)
	st := &phase2State{
		notStart: make([][]bool, nodes),
		walkers:  make([][]walker, nodes),
		contigs:  make([]int64, nodes),
		totalLen: make([]int64, nodes),
		maxLen:   make([]int64, nodes),
	}
	for i := range tables {
		st.notStart[i] = make([]bool, tables[i].Slots())
		// One walker slot per table slot: fixed addresses, so the seed
		// kernel's writes and later reply-handler updates never race on
		// a growing slice.
		st.walkers[i] = make([]walker, tables[i].Slots())
	}

	// mark: a=successor k-mer, b=predecessor's first base. If the
	// successor is present, UU, and agrees that its unique left
	// extension is the predecessor's first base, it is not a chain
	// start.
	mark := sys.RegisterAM(func(node int, a, b uint64) {
		t := tables[node]
		s := t.slotFor(a, false)
		if s < 0 {
			return
		}
		_, _, ext, _ := t.At(s)
		if IsUU(ext) && baseOf(ext>>4) == b {
			st.notStart[node][s] = true
		}
	})

	// walkRep: a=walker index (home node implicit), b=0 for "chain
	// ends", else 1<<3 | next right base.
	var walkReq uint8
	walkRep := sys.RegisterAM(func(node int, a, b uint64) {
		w := &st.walkers[node][a]
		if b == 0 {
			st.contigs[node]++
			st.totalLen[node] += w.length
			if w.length > st.maxLen[node] {
				st.maxLen[node] = w.length
			}
			return
		}
		w.cur = w.pending
		w.length++
		next := successor(w.cur, b&3, kmerMask)
		w.pending = next
		sys.HostAM(node, walkReq, Owner(next, sys.Nodes()), next,
			uint64(node)<<40|a<<2|firstBase(w.cur, k))
	})

	// walkReq: a=k-mer to look up, b=walkerNode<<40|walkerIdx<<2|prevFirstBase.
	walkReq = sys.RegisterAM(func(node int, a, b uint64) {
		home := int(b >> 40)
		idx := (b >> 2) & ((1 << 38) - 1)
		prevBase := b & 3
		t := tables[node]
		s := t.slotFor(a, false)
		reply := uint64(0)
		if s >= 0 {
			_, _, ext, _ := t.At(s)
			// Continue only if the looked-up k-mer is UU and its unique
			// left extension matches the requester (mutual agreement).
			if IsUU(ext) && baseOf(ext>>4) == prevBase {
				reply = 1<<3 | baseOf(ext&0xf)
			}
		}
		sys.HostAM(node, walkRep, home, idx, reply)
	})

	res1 := runWithTables(sys, cfg, at, tables)
	res2 := runPhase2(sys, cfg, tables, mark, walkReq, walkRep, st, at)
	return res1, res2
}

// ReferencePhase2 computes the same contig statistics sequentially from
// the union of all reads.
func ReferencePhase2(cfg Config, nodes int) Phase2Result {
	genome := Genome(cfg.GenomeLen, cfg.Seed)
	kmersPerRead := cfg.ReadLen - cfg.K + 1
	kmerMask := uint64(1)<<(2*cfg.K) - 1
	k := cfg.K

	// Build the k-mer -> extension-mask map exactly as phase 1 does.
	ext := make(map[uint64]uint8)
	for node := 0; node < nodes; node++ {
		for r := 0; r < cfg.ReadsPerNode; r++ {
			start := readStart(&cfg, node, r)
			var km uint64
			for j := 0; j < cfg.K-1; j++ {
				km = km<<2 | uint64(readBase(&cfg, genome, node, r, start, j))
			}
			for i := 0; i < kmersPerRead; i++ {
				km = (km<<2 | uint64(readBase(&cfg, genome, node, r, start, cfg.K-1+i))) & kmerMask
				var e uint8
				if i > 0 {
					e |= 1 << (4 + readBase(&cfg, genome, node, r, start, i-1))
				}
				if i < kmersPerRead-1 {
					e |= 1 << readBase(&cfg, genome, node, r, start, cfg.K+i)
				}
				ext[km] |= e
			}
		}
	}

	var res Phase2Result
	notStart := make(map[uint64]bool)
	for km, e := range ext {
		if !IsUU(e) {
			continue
		}
		res.UU++
		next := successor(km, baseOf(e&0xf), kmerMask)
		if ne, ok := ext[next]; ok && IsUU(ne) && baseOf(ne>>4) == firstBase(km, k) {
			notStart[next] = true
		}
	}
	for km, e := range ext {
		if !IsUU(e) || notStart[km] {
			continue
		}
		// Walk the chain.
		length := int64(1)
		cur := km
		ce := e
		for {
			next := successor(cur, baseOf(ce&0xf), kmerMask)
			ne, ok := ext[next]
			if !ok || !IsUU(ne) || baseOf(ne>>4) != firstBase(cur, k) {
				break
			}
			cur = next
			ce = ne
			length++
		}
		res.Contigs++
		res.TotalLen += length
		if length > res.MaxLen {
			res.MaxLen = length
		}
	}
	return res
}
