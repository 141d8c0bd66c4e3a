package bench

import (
	"fmt"

	"gravel/internal/apps/gups"
	"gravel/internal/core"
	"gravel/internal/queue"
	"gravel/internal/timemodel"
)

// Ablations exercises the design choices DESIGN.md calls out beyond the
// paper's own figures:
//
//  1. offload granularity — the GPU-side cost of offloading GUPS's
//     messages with 1/2/4-WF work-groups (the application-level view of
//     Figure 6's "WG-level offload is ~3x faster", §3.4). GUPS
//     end-to-end time is network-thread-bound, so the GPU clock and the
//     queue-protocol atomics per message are the quantities that move.
//  2. local-atomic routing — §6 serializes even node-local atomics
//     through the network thread; the ablation compares that against
//     executing local increments as concurrent GPU RMWs. The paper
//     reports its choice was faster on its system.
//  3. hardware aggregator — §8.1 proposes replacing the polling CPU
//     thread with dedicated logic; the ablation shows the end-to-end
//     effect is small (the network thread dominates) while the CPU core
//     is freed — the paper's energy/efficiency argument.
//  4. slot padding — measured throughput of the padded CPU MPMC vs the
//     same protocol without padding, isolating the false-sharing cost
//     §4.3 attributes to CPU queue layouts.
func Ablations(scale float64, params *timemodel.Params) *Table {
	t := &Table{
		Title:  "Ablations: Gravel design choices",
		Header: []string{"ablation", "setting", "result"},
	}
	s := func(base int) int {
		v := int(float64(base) * scale)
		if v < 64 {
			v = 64
		}
		return v
	}
	cfg := gups.Config{TableSize: s(1 << 20), UpdatesPerNode: s(1_440_000) / 8, Seed: 13}

	// 1. Offload granularity: GPU-side offload cost per WG width.
	for _, wfs := range []int{1, 2, 4} {
		p := cloneParams(params)
		cl := core.New(core.Config{Nodes: 8, Params: p, WGSize: 64 * wfs})
		gups.Run(cl, cfg)
		var gpuNs float64
		var atomics, msgs int64
		for i := 0; i < 8; i++ {
			n := cl.Node(i)
			gpuNs += n.Clocks.Snapshot().GPU
			atomics += n.GPU.Counters.Atomics.Load()
			msgs += n.GPU.Counters.Messages.Load()
		}
		cl.Close()
		t.AddRow("offload granularity", fmt.Sprintf("%d WF/WG", wfs),
			fmt.Sprintf("GPU offload time %s ms, %.4f atomics/msg", F(gpuNs/1e6), float64(atomics)/float64(msgs)))
	}

	// 2. Local-atomic routing (§6): via network thread vs direct GPU
	// RMWs, on one node (all-local) and eight nodes.
	for _, nodes := range []int{1, 8} {
		c2 := cfg
		c2.UpdatesPerNode = s(1_440_000) / nodes
		for _, direct := range []bool{false, true} {
			p := cloneParams(params)
			cl := core.New(core.Config{Nodes: nodes, Params: p, LocalAtomicsDirect: direct})
			res := gups.Run(cl, c2)
			cl.Close()
			mode := "via network thread (paper)"
			if direct {
				mode = "direct GPU RMWs"
			}
			t.AddRow("local atomics", fmt.Sprintf("%d node(s), %s", nodes, mode),
				fmt.Sprintf("GUPS time %s ms", F(res.Ns/1e6)))
		}
	}

	// 3. Hardware aggregator (§8.1): dedicated logic repacks messages at
	// a fraction of the CPU cost and frees the CPU core that otherwise
	// spends ~65% of its time polling.
	for _, hw := range []bool{false, true} {
		p := cloneParams(params)
		label := "CPU thread (paper prototype)"
		if hw {
			label = "dedicated hardware (§8.1 proposal)"
			p.AggPerMsgNs = 1
			p.AggPerSlotNs = 5
			p.AggPerFlushNs = 40
		}
		cl := core.New(core.Config{Nodes: 8, Params: p})
		res := gups.Run(cl, cfg)
		busy := cl.Stats().Agg.BusyFrac
		var joules float64
		for i := 0; i < 8; i++ {
			joules += timemodel.EnergyJ(cl.Node(i).Clocks.Snapshot(), hw)
		}
		cl.Close()
		t.AddRow("aggregator", label,
			fmt.Sprintf("GUPS time %s ms, CPU busy aggregating %.0f%%, energy %.2g J", F(res.Ns/1e6), 100*busy, joules))
	}

	// 4. Padding (false sharing) on the CPU MPMC protocol, 8 B messages.
	padded := runMPMC(1<<18, 8)
	unpadded := runUnpaddedMPMC(1 << 18)
	t.AddRow("MPMC slot padding", "padded (paper layout)", fmt.Sprintf("%s GB/s measured", F(padded)))
	t.AddRow("MPMC slot padding", "unpadded (false sharing)", fmt.Sprintf("%s GB/s measured", F(unpadded)))
	t.Note("the network thread keeps GUPS end-to-end time net-bound, so offload granularity shows up in GPU time, not total time")
	t.Note("padding comparison is host-measured; on a single-core host the false-sharing penalty largely disappears")
	return t
}

// runUnpaddedMPMC measures the Gravel protocol with one 8-byte message
// per slot and no padding: adjacent slots share cache lines.
func runUnpaddedMPMC(totalMsgs int) float64 {
	return runGravelQueueRaw(totalMsgs, queue.NewGravel(1024, 1, 1), 2, 2)
}
