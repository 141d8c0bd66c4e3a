// Quickstart: fine-grain atomic increments against a distributed table
// (the paper's GUPS pattern, Figure 4b). Each GPU work-item initiates
// one 8-byte increment to a random offset; Gravel offloads them at
// work-group granularity and aggregates them into 64 kB per-node queues.
package main

import (
	"fmt"

	"gravel"
)

// splitmix is a tiny deterministic hash for update offsets.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

func main() {
	const (
		nodes     = 4
		tableSize = 1 << 18
		updates   = 1 << 16 // per node
	)

	sys := gravel.New(gravel.Config{Nodes: nodes})
	defer sys.Close()

	table := sys.Space().Alloc(tableSize)

	grid := make([]int, nodes)
	for i := range grid {
		grid[i] = updates
	}

	sys.Step("updates", grid, 0, func(c gravel.Ctx) {
		g := c.Group()
		idx := make([]uint64, g.Size)
		one := make([]uint64, g.Size)
		node := uint64(c.Node())
		g.Vector(func(l int) {
			idx[l] = splitmix(node<<40^uint64(g.GlobalID(l))) % tableSize
			one[l] = 1
		})
		// Atomic increments are always routed through the owner's
		// network thread — even local ones (§6 of the paper).
		c.Inc(table, idx, one, nil)
	})

	st := sys.Stats()
	fmt.Printf("table sum:        %d (want %d)\n", table.Sum(), nodes*updates)
	fmt.Printf("virtual time:     %.3f ms\n", sys.VirtualTimeNs()/1e6)
	fmt.Printf("remote accesses:  %.1f%%\n", 100*st.Queue.RemoteFrac())
	fmt.Printf("avg wire packet:  %.0f B\n", st.Transport.AvgPacketBytes)
	fmt.Printf("updates/s (virt): %.1f M\n", float64(nodes*updates)/sys.VirtualTimeNs()*1e3)
}
