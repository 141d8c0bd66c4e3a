package models_test

import (
	"testing"

	"gravel/internal/core"
	"gravel/internal/models"
	"gravel/internal/rt"
)

// splitmix64 is the seeded generator behind the property-test streams:
// cheap, deterministic, and identical on the precompute and verify
// sides.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// TestAggStrategiesPreserveOrderAndChecksum is the aggregation-strategy
// property test: for any strategy (ticket-slot builders in "gravel",
// per-destination archives in "gravel-archive") and any seeded
// destination distribution (uniform spray or zipfian skew), messages
// from one source to one destination must arrive in issue order, and
// the additive payload checksums must survive aggregation exactly.
// Each node runs a single work-group (so issue order is well defined)
// that sends several rounds of active messages; the handler records the
// per-source sequence numbers it observes at each destination.
func TestAggStrategiesPreserveOrderAndChecksum(t *testing.T) {
	const (
		nodes  = 4
		wgSize = 64
		rounds = 6
	)

	// zipfThresh maps a 16-bit draw to a zipf(s=1) rank over the node
	// count: weights 1/(k+1), so rank 0 (node 0) absorbs ~48% of the
	// traffic — the skew the archive strategy is built for.
	var zipfThresh [nodes]uint64
	{
		var total float64
		for k := 0; k < nodes; k++ {
			total += 1 / float64(k+1)
		}
		var cum float64
		for k := 0; k < nodes; k++ {
			cum += 1 / float64(k+1)
			zipfThresh[k] = uint64(cum / total * (1 << 16))
		}
		zipfThresh[nodes-1] = 1 << 16 // exact upper bound
	}
	dists := []struct {
		name string
		pick func(r uint64) int
	}{
		{"uniform", func(r uint64) int { return int(r % nodes) }},
		{"zipfian", func(r uint64) int {
			d := r % (1 << 16)
			for k := 0; k < nodes; k++ {
				if d < zipfThresh[k] {
					return k
				}
			}
			return nodes - 1
		}},
	}

	for _, model := range []string{"gravel", "gravel-archive"} {
		for _, dist := range dists {
			t.Run(model+"/"+dist.name, func(t *testing.T) {
				// Precompute every node's message stream: destination,
				// per-(src,dest) sequence number, and a random payload
				// whose per-destination sums are the checksum oracle.
				var (
					destTab [nodes][rounds][]int
					aTab    [nodes][rounds][]uint64
					bTab    [nodes][rounds][]uint64
					wantSum [nodes]uint64
					wantCnt [nodes]int
				)
				rng := uint64(0x5eed<<4) + uint64(len(dist.name))
				var seq [nodes][nodes]uint64
				for src := 0; src < nodes; src++ {
					for r := 0; r < rounds; r++ {
						destTab[src][r] = make([]int, wgSize)
						aTab[src][r] = make([]uint64, wgSize)
						bTab[src][r] = make([]uint64, wgSize)
						for l := 0; l < wgSize; l++ {
							d := dist.pick(splitmix64(&rng))
							payload := splitmix64(&rng)
							destTab[src][r][l] = d
							aTab[src][r][l] = uint64(src)<<32 | seq[src][d]
							bTab[src][r][l] = payload
							seq[src][d]++
							wantSum[d] += payload
							wantCnt[d]++
						}
					}
				}

				sys := models.NewSystem(model, core.Config{Nodes: nodes, WGSize: wgSize})
				defer sys.Close()

				// got[dest].seqs[src] is the arrival-ordered sequence
				// list; handlers run serialized per destination node, so
				// per-index mutation is race-free.
				type recNode struct {
					seqs [nodes][]uint64
					sum  uint64
				}
				got := make([]recNode, nodes)
				h := sys.RegisterAM(func(node int, a, b uint64) {
					src := int(a >> 32)
					got[node].seqs[src] = append(got[node].seqs[src], a&0xffffffff)
					got[node].sum += b
				})

				grid := make([]int, nodes)
				for i := range grid {
					grid[i] = wgSize
				}
				sys.Step("aggprop", grid, 0, func(c rt.Ctx) {
					src := c.Node()
					for r := 0; r < rounds; r++ {
						c.AM(h, destTab[src][r], aTab[src][r], bTab[src][r], nil)
					}
				})

				for d := 0; d < nodes; d++ {
					cnt := 0
					for src := 0; src < nodes; src++ {
						for i, s := range got[d].seqs[src] {
							if s != uint64(i) {
								t.Fatalf("%s/%s: dest %d reordered stream from src %d: seq %d at position %d",
									model, dist.name, d, src, s, i)
							}
						}
						if g, w := len(got[d].seqs[src]), int(seq[src][d]); g != w {
							t.Fatalf("%s/%s: dest %d got %d messages from src %d, want %d",
								model, dist.name, d, g, src, w)
						}
						cnt += len(got[d].seqs[src])
					}
					if cnt != wantCnt[d] {
						t.Fatalf("%s/%s: dest %d received %d messages, want %d", model, dist.name, d, cnt, wantCnt[d])
					}
					if got[d].sum != wantSum[d] {
						t.Fatalf("%s/%s: dest %d checksum %d, want %d", model, dist.name, d, got[d].sum, wantSum[d])
					}
				}
				// The distributions must actually differ: zipfian should
				// send node 0 well over its uniform share.
				if dist.name == "zipfian" && wantCnt[0] <= wantCnt[nodes-1] {
					t.Fatalf("zipfian stream not skewed: node 0 got %d, node %d got %d", wantCnt[0], nodes-1, wantCnt[nodes-1])
				}
			})
		}
	}
}
