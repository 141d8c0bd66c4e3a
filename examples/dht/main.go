// Distributed hash table construction with active messages — the
// communication pattern of the paper's Meraculous (mer) workload. Every
// work-item extracts tokens from its shard of a synthetic corpus and
// sends each one as an active message to the node owning its hash
// bucket; the owner's network thread inserts it into a node-local
// open-addressing table.
package main

import (
	"fmt"
	"sort"

	"gravel"
)

const (
	nodes      = 4
	docsPerWI  = 1
	wisPerNode = 20_000
	tokensDoc  = 8
	vocab      = 1000
)

func hash(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// table is a node-local open-addressing hash table; only the owning
// node's network thread writes it.
type table struct {
	keys   []uint64
	counts []int64
}

func newTable(slots int) *table {
	n := 1
	for n < slots {
		n <<= 1
	}
	return &table{keys: make([]uint64, n), counts: make([]int64, n)}
}

func (t *table) insert(key uint64) {
	mask := uint64(len(t.keys) - 1)
	for s := hash(key) & mask; ; s = (s + 1) & mask {
		switch t.keys[s] {
		case 0:
			t.keys[s] = key + 1
			t.counts[s] = 1
			return
		case key + 1:
			t.counts[s]++
			return
		}
	}
}

func main() {
	sys := gravel.New(gravel.Config{Nodes: nodes})
	defer sys.Close()

	tables := make([]*table, nodes)
	for i := range tables {
		tables[i] = newTable(4 * vocab)
	}
	insert := sys.RegisterAM(func(node int, key, _ uint64) {
		tables[node].insert(key)
	})

	grid := make([]int, nodes)
	for i := range grid {
		grid[i] = wisPerNode
	}

	// Zipf-ish token draw: token t has weight ~ 1/(t+1).
	token := func(node, wi, j int) uint64 {
		h := hash(uint64(node)<<40 ^ uint64(wi)<<8 ^ uint64(j))
		r := float64(h%1000000) / 1000000
		t := uint64(float64(vocab) * r * r) // quadratic skew toward 0
		return t
	}

	sys.Step("count-tokens", grid, 0, func(c gravel.Ctx) {
		g := c.Group()
		node := c.Node()
		counts := make([]int, g.Size)
		dst := make([]int, g.Size)
		key := make([]uint64, g.Size)
		one := make([]uint64, g.Size)
		g.Vector(func(l int) {
			counts[l] = tokensDoc * docsPerWI
			one[l] = 1
		})
		// A diverged work-group-level loop: lanes emit one AM per token.
		g.PredicatedLoop(counts, 4, func(j int, active []bool) {
			g.VectorMasked(2, active, func(l int) {
				tok := token(node, g.GlobalID(l), j)
				key[l] = tok
				dst[l] = int(hash(tok^0xd17) % nodes)
			})
			c.AM(insert, dst, key, one, active)
		})
	})

	// Report the hottest tokens across the cluster.
	type kv struct {
		key uint64
		n   int64
	}
	var all []kv
	var total int64
	for _, t := range tables {
		for s, k := range t.keys {
			if k != 0 {
				all = append(all, kv{k - 1, t.counts[s]})
				total += t.counts[s]
			}
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].n > all[j].n })
	want := int64(nodes * wisPerNode * tokensDoc * docsPerWI)
	fmt.Printf("tokens inserted: %d (want %d), distinct: %d\n", total, want, len(all))
	fmt.Println("hottest tokens:")
	for i := 0; i < 5 && i < len(all); i++ {
		fmt.Printf("  token %4d: %6d occurrences\n", all[i].key, all[i].n)
	}
	st := sys.Stats()
	fmt.Printf("virtual time %.3f ms, remote %.1f%%, avg packet %.0f B\n",
		sys.VirtualTimeNs()/1e6, 100*st.Queue.RemoteFrac(), st.Transport.AvgPacketBytes)
}
