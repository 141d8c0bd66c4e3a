// Package mer implements phase 1 of the paper's Meraculous genome
// assembly workload (§6 [33]): constructing a distributed k-mer hash
// table. Every k-mer extracted from a read is sent as an active message
// to the node that owns its hash bucket, whose network thread inserts it
// into a node-local open-addressing table. At 8 nodes, 7/8 of k-mers
// hash to a remote node (Table 5: 87.5 % remote).
//
// The paper uses the 3.6 GB human-chr14 read set; this reproduction
// generates deterministic synthetic reads from a random reference genome
// (DESIGN.md §2), which preserves the communication pattern exactly.
package mer

import (
	"gravel/internal/graph"
	"gravel/internal/rt"
)

// Config parameterizes a mer run.
type Config struct {
	// GenomeLen is the reference genome length in bases.
	GenomeLen int
	// ReadsPerNode and ReadLen shape the synthetic read set.
	ReadsPerNode int
	ReadLen      int
	// K is the k-mer length (≤ 31).
	K    int
	Seed uint64
	// TableSlotsPerNode sizes each node's open-addressing table; 0 means
	// 4x the expected unique k-mer load.
	TableSlotsPerNode int
	// ErrorPerMille injects deterministic per-base substitution errors
	// into reads (real read sets have them; they break UU chains into
	// realistic contig-length distributions in phase 2).
	ErrorPerMille int
}

// Result reports a mer run.
type Result struct {
	Ns float64
	// Inserted is the total number of k-mer insertions (table count sum).
	Inserted int64
	// Distinct is the number of distinct k-mers stored.
	Distinct int64
	// Expected is the number of k-mers the read set contains.
	Expected int64
	// Tables exposes the per-node hash tables for verification.
	Tables []*Table
}

// Table is one node's open-addressing k-mer table: keys hold kmer+1
// (0 = empty), counts hold multiplicities, exts holds the merged
// neighbor-base masks (left bases in the high nibble, right bases in
// the low nibble — phase 2 traverses k-mers whose masks are UU: exactly
// one bit per nibble). Only the owning node's network thread writes it.
type Table struct {
	keys   []uint64
	counts []int64
	exts   []uint8
	used   int
}

// NewTable creates a table with the given slot count (rounded up to a
// power of two).
func NewTable(slots int) *Table {
	n := 1
	for n < slots {
		n <<= 1
	}
	return &Table{keys: make([]uint64, n), counts: make([]int64, n), exts: make([]uint8, n)}
}

// Insert adds one occurrence of kmer with the given neighbor-base mask,
// linear-probing from its hash. It panics if the table is full (sizing
// bug, not input condition).
func (t *Table) Insert(kmer uint64, ext uint8) {
	s := t.slotFor(kmer, true)
	if t.keys[s] == 0 {
		t.keys[s] = kmer + 1
		t.used++
	}
	t.counts[s]++
	t.exts[s] |= ext
}

// slotFor probes for kmer; with insert set it returns the first empty
// slot when the key is absent, otherwise -1 for absent keys.
func (t *Table) slotFor(kmer uint64, insert bool) int {
	mask := uint64(len(t.keys) - 1)
	h := graph.Hash64(kmer) & mask
	for i := 0; i <= int(mask); i++ {
		s := (h + uint64(i)) & mask
		switch t.keys[s] {
		case 0:
			if insert {
				return int(s)
			}
			return -1
		case kmer + 1:
			return int(s)
		}
	}
	if insert {
		panic("mer: table full")
	}
	return -1
}

// Lookup returns the multiplicity of kmer.
func (t *Table) Lookup(kmer uint64) int64 {
	s := t.slotFor(kmer, false)
	if s < 0 {
		return 0
	}
	return t.counts[s]
}

// Ext returns kmer's merged neighbor-base mask, 0 if absent.
func (t *Table) Ext(kmer uint64) uint8 {
	s := t.slotFor(kmer, false)
	if s < 0 {
		return 0
	}
	return t.exts[s]
}

// Slots returns the table's slot count.
func (t *Table) Slots() int { return len(t.keys) }

// At returns the slot's contents (kmer valid only when present).
func (t *Table) At(slot int) (kmer uint64, count int64, ext uint8, present bool) {
	if t.keys[slot] == 0 {
		return 0, 0, 0, false
	}
	return t.keys[slot] - 1, t.counts[slot], t.exts[slot], true
}

// IsUU reports whether a neighbor mask has exactly one left and one
// right base — the "uniquely extendable" k-mers phase 2 traverses.
func IsUU(ext uint8) bool {
	l, r := ext>>4, ext&0xf
	return l != 0 && l&(l-1) == 0 && r != 0 && r&(r-1) == 0
}

// baseOf returns the base index of a one-hot nibble.
func baseOf(nib uint8) uint64 {
	switch nib {
	case 1:
		return 0
	case 2:
		return 1
	case 4:
		return 2
	default:
		return 3
	}
}

// Genome returns the deterministic reference genome as 2-bit base codes.
func Genome(n int, seed uint64) []byte {
	g := make([]byte, n)
	for i := range g {
		g[i] = byte(graph.Hash64(seed^0xbeef^uint64(i)) & 3)
	}
	return g
}

// readStart returns the genome offset of read (node, r).
func readStart(cfg *Config, node, r int) int {
	span := cfg.GenomeLen - cfg.ReadLen
	return int(graph.Hash64(cfg.Seed^uint64(node)<<32^uint64(r)) % uint64(span))
}

// readBase returns base j of read (node, r) whose genome offset is
// start, with deterministic substitution errors applied.
func readBase(cfg *Config, genome []byte, node, r, start, j int) byte {
	b := genome[start+j]
	if cfg.ErrorPerMille > 0 {
		h := graph.Hash64(cfg.Seed ^ 0xe44 ^ uint64(node)<<40 ^ uint64(r)<<16 ^ uint64(j))
		if int(h%1000) < cfg.ErrorPerMille {
			b = byte((uint64(b) + 1 + (h>>10)%3) & 3)
		}
	}
	return b
}

// Owner returns the node owning a k-mer's bucket.
func Owner(kmer uint64, nodes int) int {
	return int(graph.Hash64(kmer^0x5eed) % uint64(nodes))
}

// Run executes the distributed hash-table construction on every node.
func Run(sys rt.System, cfg Config) Result {
	return RunAt(sys, cfg, rt.Whole())
}

// RunAt is the table construction: at says which node's reads this call
// launches. Insertions land on the k-mer owner's process, so a shard's
// Inserted and Distinct are counted from its own table and sum across
// shards to the whole run's values; Expected is the global k-mer count,
// identical in every process.
func RunAt(sys rt.System, cfg Config, at rt.Where) Result {
	return runWithTables(sys, cfg, at, buildTables(&cfg, sys.Nodes()))
}

// buildTables allocates the per-node tables for a run. RunFullAt calls
// it before phase 1 so that phase 2's AM handlers can never observe
// unallocated state: in a multi-process run a faster peer's phase 2
// messages may arrive while this process is still in host code, and
// the only safe ordering is allocation before the previous step's
// global barrier.
func buildTables(cfg *Config, nodes int) []*Table {
	kmersPerRead := cfg.ReadLen - cfg.K + 1
	if kmersPerRead <= 0 {
		panic("mer: ReadLen must exceed K")
	}
	slots := cfg.TableSlotsPerNode
	if slots == 0 {
		slots = 4 * cfg.ReadsPerNode * kmersPerRead / nodes
		if slots < 1024 {
			slots = 1024
		}
	}
	tables := make([]*Table, nodes)
	for i := range tables {
		tables[i] = NewTable(slots)
	}
	return tables
}

func runWithTables(sys rt.System, cfg Config, at rt.Where, tables []*Table) Result {
	nodes := sys.Nodes()
	genome := Genome(cfg.GenomeLen, cfg.Seed)
	kmersPerRead := cfg.ReadLen - cfg.K + 1

	insert := sys.RegisterAM(func(node int, a, b uint64) {
		tables[node].Insert(a, uint8(b))
	})

	grid := make([]int, nodes)
	for i := range grid {
		if at.Runs(i) {
			grid[i] = cfg.ReadsPerNode
		}
	}

	kmerMask := uint64(1)<<(2*cfg.K) - 1

	t0 := sys.VirtualTimeNs()
	// mer uses more scratchpad than the other benchmarks (§7.2): every
	// lane stages its read in LDS while k-mers are extracted, so a
	// 256-WI work-group consumes ReadLen*256 bytes.
	scratch := cfg.ReadLen*256 + 64
	sys.Step("mer-build", grid, scratch, func(c rt.Ctx) {
		wg := c.Group()
		counts := make([]int, wg.Size)
		cur := make([]uint64, wg.Size) // rolling k-mer per lane
		dst := make([]int, wg.Size)
		a := make([]uint64, wg.Size)
		b := make([]uint64, wg.Size)
		node := c.Node()

		// Prime each lane's rolling k-mer with the first K-1 bases.
		wg.VectorN(cfg.K, func(l int) {
			r := wg.GlobalID(l)
			start := readStart(&cfg, node, r)
			var km uint64
			for j := 0; j < cfg.K-1; j++ {
				km = km<<2 | uint64(readBase(&cfg, genome, node, r, start, j))
			}
			cur[l] = km
			counts[l] = kmersPerRead
		})
		wg.PredicatedLoop(counts, 6, func(i int, active []bool) {
			wg.VectorMasked(3, active, func(l int) {
				r := wg.GlobalID(l)
				start := readStart(&cfg, node, r)
				cur[l] = (cur[l]<<2 | uint64(readBase(&cfg, genome, node, r, start, cfg.K-1+i))) & kmerMask
				dst[l] = Owner(cur[l], nodes)
				a[l] = cur[l]
				// Neighbor-base mask: left neighbor exists unless this
				// is the read's first k-mer; right neighbor unless last.
				var ext uint8
				if i > 0 {
					ext |= 1 << (4 + readBase(&cfg, genome, node, r, start, i-1))
				}
				if i < kmersPerRead-1 {
					ext |= 1 << readBase(&cfg, genome, node, r, start, cfg.K+i)
				}
				b[l] = uint64(ext)
			})
			c.AM(insert, dst, a, b, active)
		})
	})
	ns := sys.VirtualTimeNs() - t0

	var inserted, distinct int64
	for i, t := range tables {
		// In a distributed run only the hosted node's table is populated
		// in this process; count just it, so shard results sum cleanly.
		if !at.Runs(i) {
			continue
		}
		for s, k := range t.keys {
			if k != 0 {
				distinct++
				inserted += t.counts[s]
			}
		}
	}
	return Result{
		Ns:       ns,
		Inserted: inserted,
		Distinct: distinct,
		Expected: int64(nodes) * int64(cfg.ReadsPerNode) * int64(kmersPerRead),
		Tables:   tables,
	}
}

// ReferenceCounts builds the same k-mer multiset sequentially for
// verification.
func ReferenceCounts(cfg Config, nodes int) map[uint64]int64 {
	genome := Genome(cfg.GenomeLen, cfg.Seed)
	kmersPerRead := cfg.ReadLen - cfg.K + 1
	kmerMask := uint64(1)<<(2*cfg.K) - 1
	out := make(map[uint64]int64)
	for node := 0; node < nodes; node++ {
		for r := 0; r < cfg.ReadsPerNode; r++ {
			start := readStart(&cfg, node, r)
			var km uint64
			for j := 0; j < cfg.K-1; j++ {
				km = km<<2 | uint64(readBase(&cfg, genome, node, r, start, j))
			}
			for i := 0; i < kmersPerRead; i++ {
				km = (km<<2 | uint64(readBase(&cfg, genome, node, r, start, cfg.K-1+i))) & kmerMask
				out[km]++
			}
		}
	}
	return out
}
