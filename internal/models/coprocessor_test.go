package models

import (
	"testing"

	"gravel/internal/rt"
)

// TestCoprocessorChunking: the coprocessor model must launch in chunks
// bounded by its per-node queue capacity — visible as many more kernel
// launches (host time) than Gravel needs for the same grid.
func TestCoprocessorChunking(t *testing.T) {
	cp := New("coprocessor", 2, nil).(*Coprocessor)
	defer cp.Close()
	arr := cp.Space().Alloc(256)
	const grid = 60000 // >> 64kB/24B ≈ 2730-WI chunks
	kernel := func(c rt.Ctx) {
		g := c.Group()
		idx := make([]uint64, g.Size)
		one := make([]uint64, g.Size)
		g.Vector(func(l int) {
			idx[l] = uint64(g.GlobalID(l) % 256)
			one[l] = 1
		})
		c.Inc(arr, idx, one, nil)
	}
	cp.Step("inc", []int{grid, 0}, 0, kernel)
	if got := arr.Sum(); got != uint64(grid) {
		t.Fatalf("sum = %d, want %d", got, grid)
	}
	host := cp.Node(0).Clocks.Snapshot().Host
	launch := cp.Params().KernelLaunchNs
	// ~22 chunks of ~2688 WIs each, plus per-chunk exchange overhead.
	if host < 15*launch {
		t.Fatalf("host time %v suggests no chunking (launch=%v)", host, launch)
	}
}

// TestCoprocessorReactiveShrink: a kernel whose WIs send many messages
// each overflows queues mid-chunk; the model must shrink its chunk in
// response (more launches than the one-message-per-WI case).
func TestCoprocessorReactiveShrink(t *testing.T) {
	hostFor := func(msgsPerWI int) float64 {
		cp := New("coprocessor", 2, nil).(*Coprocessor)
		defer cp.Close()
		arr := cp.Space().Alloc(256)
		const grid = 16384
		cp.Step("inc", []int{grid, 0}, 0, func(c rt.Ctx) {
			g := c.Group()
			idx := make([]uint64, g.Size)
			one := make([]uint64, g.Size)
			counts := make([]int, g.Size)
			g.Vector(func(l int) {
				counts[l] = msgsPerWI
				one[l] = 1
			})
			g.PredicatedLoop(counts, 1, func(i int, active []bool) {
				g.VectorMasked(1, active, func(l int) {
					idx[l] = uint64((g.GlobalID(l)*7 + i) % 256)
				})
				c.Inc(arr, idx, one, active)
			})
		})
		if got := arr.Sum(); got != uint64(grid*msgsPerWI) {
			t.Fatalf("sum = %d, want %d", got, grid*msgsPerWI)
		}
		return cp.Node(0).Clocks.Snapshot().Host
	}
	light := hostFor(1)
	heavy := hostFor(8)
	if heavy <= light*1.5 {
		t.Fatalf("heavy kernel host time (%v) should exceed light (%v): chunk did not shrink", heavy, light)
	}
}

// TestCoalescedScratchpadPenalty: the coalesced model's counting sort
// consumes scratchpad (16 B per lane), lowering occupancy and slowing
// scratch-hungry kernels (§7.2's mer observation).
func TestCoalescedScratchpadPenalty(t *testing.T) {
	gpuTime := func(scratch int) float64 {
		c := New("coalesced", 2, nil).(*Coalesced)
		defer c.Close()
		arr := c.Space().Alloc(64)
		c.Step("inc", []int{8192, 0}, scratch, func(ctx rt.Ctx) {
			g := ctx.Group()
			idx := make([]uint64, g.Size)
			one := make([]uint64, g.Size)
			g.VectorN(16, func(l int) { idx[l] = 0; one[l] = 1 })
			ctx.Inc(arr, idx, one, nil)
		})
		return c.Node(0).Clocks.Snapshot().GPU
	}
	small := gpuTime(0)
	// 28 kB app scratch + 4 kB counting sort = 2 resident WGs per CU:
	// below the full-throughput occupancy, so the device slows down.
	big := gpuTime(28 << 10)
	if big <= small {
		t.Fatalf("scratch-hungry coalesced kernel (%v) not slower than light one (%v)", big, small)
	}
}
