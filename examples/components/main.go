// Connected components via the graphlib vertex-centric layer (the
// GasCL-style substrate the paper's graph workloads derive from):
// min-label propagation over a distributed graph, with every label
// exchange traveling as a Gravel fine-grain PUT message.
package main

import (
	"fmt"
	"sort"

	"gravel"
	"gravel/graphlib"
)

func main() {
	const nodes = 4

	// A sparse random graph fragments into one giant component plus
	// stragglers — label propagation finds them all.
	g := graphlib.Random(30_000, 2, 42)

	sys := gravel.New(gravel.Config{Nodes: nodes})
	defer sys.Close()

	eng := graphlib.NewEngine(sys, g)
	rounds := eng.Run(graphlib.ConnectedComponents{}, 0)

	// Summarize component sizes.
	sizes := map[uint64]int{}
	for v := 0; v < g.N; v++ {
		sizes[eng.State(v)]++
	}
	order := make([]int, 0, len(sizes))
	for _, n := range sizes {
		order = append(order, n)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(order)))

	fmt.Printf("%v on %d nodes\n", g, nodes)
	fmt.Printf("components: %d (converged in %d rounds)\n", len(sizes), rounds)
	fmt.Printf("largest: %v...\n", order[:min(5, len(order))])
	st := sys.Stats()
	fmt.Printf("virtual time %.3f ms, remote PUTs %.1f%%, avg packet %.0f B\n",
		sys.VirtualTimeNs()/1e6, 100*st.Queue.RemoteFrac(), st.Transport.AvgPacketBytes)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
