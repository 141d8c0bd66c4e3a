package harness

import (
	"fmt"
	"hash/fnv"
	"sync"

	"gravel/internal/apps/bfs"
	"gravel/internal/apps/color"
	"gravel/internal/apps/gups"
	"gravel/internal/apps/histogram"
	"gravel/internal/apps/kmeans"
	"gravel/internal/apps/mer"
	"gravel/internal/apps/pagerank"
	"gravel/internal/apps/sssp"
	"gravel/internal/graph"
	"gravel/internal/rt"
)

// Graph-input cache: the Table 4 graphs are reused across node counts,
// models, and repetitions, so each (family, size) pair is built once per
// process. Weights are materialized up front so cached graphs are
// identical no matter which app touches them first.
var (
	graphMu    sync.Mutex
	graphCache = map[string]*graph.Graph{}
)

func cachedGraph(key string, build func() *graph.Graph) *graph.Graph {
	graphMu.Lock()
	defer graphMu.Unlock()
	if g, ok := graphCache[key]; ok {
		return g
	}
	g := build()
	g.EnsureWeights()
	graphCache[key] = g
	return g
}

// graphSize scales a graph's default vertex count with a floor of 256
// (the historical bench floor; gravel-apps used 64, and the registry
// unifies on the larger one so tiny -scale values still produce
// connected inputs).
func graphSize(base int, scale float64) int {
	n := int(float64(base) * scale)
	if n < 256 {
		n = 256
	}
	return n
}

// BubblesInput is the hugebubbles-00020 stand-in (PR-1, SSSP-1, color-1).
func BubblesInput(scale float64) *graph.Graph {
	n := graphSize(42000, scale)
	return cachedGraph(fmt.Sprintf("bubbles:%d", n), func() *graph.Graph { return graph.Bubbles(n, 1) })
}

// CageInput is the cage15 stand-in (PR-2, SSSP-2, color-2).
func CageInput(scale float64) *graph.Graph {
	n := graphSize(40000, scale)
	return cachedGraph(fmt.Sprintf("cage:%d", n), func() *graph.Graph { return graph.Cage(n, 1) })
}

// randomInput is the legacy gravel-node pagerank graph: uniform random
// with out-degree 8.
func randomInput(p Params) *graph.Graph {
	verts := p.Verts
	if verts <= 0 {
		verts = 2048
	}
	g := graph.Random(verts, 8, int64(p.seedOr(42)))
	g.EnsureWeights()
	return g
}

func (p Params) gupsConfig(nodes int) gups.Config {
	table := p.Table
	if table <= 0 {
		table = p.s(1 << 20)
	}
	updates := p.Updates
	if updates <= 0 {
		updates = p.s(1_440_000) / nodes
	}
	steps := p.Steps
	if steps <= 0 {
		steps = 1
	}
	return gups.Config{TableSize: table, UpdatesPerNode: updates, Seed: p.seedOr(13), Steps: steps}
}

func (p Params) gupsModConfig() gups.ModConfig {
	table := p.Table
	if table <= 0 {
		table = p.s(1 << 18)
	}
	wis := p.Updates
	if wis <= 0 {
		wis = p.s(1 << 19)
	}
	return gups.ModConfig{TableSize: table, WIsPerNode: wis, Seed: p.seedOr(1)}
}

func (p Params) kmeansConfig(nodes int) kmeans.Config {
	return kmeans.Config{
		PointsPerNode: p.s(160_000) / nodes,
		K:             8,
		Dims:          2,
		Iters:         p.itersOr(8),
		Seed:          p.seedOr(3),
	}
}

func (p Params) merConfig(nodes int, errors bool) mer.Config {
	cfg := mer.Config{
		GenomeLen:    p.s(100_000),
		ReadsPerNode: p.s(16_000) / nodes,
		ReadLen:      80,
		K:            19,
		Seed:         p.seedOr(9),
	}
	if errors {
		cfg.ErrorPerMille = 3
	}
	return cfg
}

func (p Params) histogramConfig(nodes int) histogram.Config {
	return histogram.Config{
		SamplesPerNode: p.s(200_000) / nodes,
		Buckets:        p.s(1 << 16),
		Seed:           p.seedOr(11),
	}
}

// centroidCheck hashes a k-means centroid vector.
func centroidCheck(cent []uint64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, c := range cent {
		for i := 0; i < 8; i++ {
			buf[i] = byte(c >> (8 * i))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

// mer2Check packs the three summable phase-2 statistics into one
// additive checksum; each field sum must stay below 2^21, comfortably
// true at smoke and bench scales.
func mer2Check(r mer.Phase2Result) uint64 {
	return uint64(r.Contigs)<<42 + uint64(r.TotalLen)<<21 + uint64(r.UU)
}

// shardTag marks the summary of one node's share of a run.
func shardTag(at rt.Where) string {
	if at.Full() {
		return ""
	}
	return "shard "
}

// registry is every App, in the order -list shows them (Table 4 order
// for the bench subset). Each row's Run is the app's one entry point.
// It reads at for two things only: a whole run prints its own summary
// and verifies itself, a shard prints the "shard …" form (its numbers
// are one node's).
var registry = []*App{
	{
		Name:  "gups",
		Desc:  "random atomic increments over a distributed table (§3)",
		Bench: "GUPS",
		Run: func(sys rt.System, at rt.Where, p Params) Result {
			r := gups.RunAt(sys, p.gupsConfig(sys.Nodes()), at)
			res := Result{Ns: r.Ns, Check: r.Sum, Err: r.Err}
			if !at.Full() {
				res.Summary = fmt.Sprintf("shard updates=%d localSum=%d", r.Updates, r.Sum)
				return res
			}
			res.Summary = fmt.Sprintf("updates=%d sum=%d virtual GUPS=%.4f", r.Updates, r.Sum, r.GUPS)
			if res.Err == nil && r.Sum != uint64(r.Updates) {
				res.Err = fmt.Errorf("gups: sum %d != updates %d", r.Sum, r.Updates)
			}
			return res
		},
		Elastic: true,
		VerifyTotal: func(total uint64, p Params, nodes int) error {
			cfg := p.gupsConfig(nodes)
			want := uint64(cfg.UpdatesPerNode/cfg.Steps) * uint64(cfg.Steps) * uint64(nodes)
			if total != want {
				return fmt.Errorf("gups: reduced sum %d != expected updates %d", total, want)
			}
			return nil
		},
	},

	{
		Name: "gups-mod",
		Desc: "GUPS with 95% idle work-items: diverged WG offload (§8.2)",
		Run: func(sys rt.System, at rt.Where, p Params) Result {
			r := gups.RunModAt(sys, p.gupsModConfig(), at)
			res := Result{Ns: r.Ns, Check: r.Sum}
			if !at.Full() {
				res.Summary = fmt.Sprintf("shard localSum=%d (global expected %d)", r.Sum, r.Updates)
				return res
			}
			res.Summary = fmt.Sprintf("updates=%d sum=%d", r.Updates, r.Sum)
			if r.Sum != uint64(r.Updates) {
				res.Err = fmt.Errorf("gups-mod: sum %d != updates %d", r.Sum, r.Updates)
			}
			return res
		},
		VerifyTotal: func(total uint64, p Params, nodes int) error {
			cfg := p.gupsModConfig()
			var want uint64
			for i := 0; i < nodes; i++ {
				for w := 0; w < cfg.WIsPerNode; w++ {
					h := graph.Hash64(cfg.Seed ^ uint64(i)<<40 ^ uint64(w))
					if h%33 == 0 {
						want += 1 + (h>>8)%8
					}
				}
			}
			if total != want {
				return fmt.Errorf("gups-mod: reduced sum %d != expected updates %d", total, want)
			}
			return nil
		},
	},

	{
		Name: "pagerank",
		Desc: "push-style PageRank over a uniform random graph (-verts/-iters)",
		Run: func(sys rt.System, at rt.Where, p Params) Result {
			return runPagerank(sys, randomInput(p), at, p.itersOr(3))
		},
		Elastic: true,
		// Rank payloads carry global vertex ranges and per-shard work
		// derives from global vertex IDs, so a checkpoint saved by N
		// workers restores under any node count.
		Reshardable: true,
		VerifyTotal: func(total uint64, p Params, _ int) error {
			return matches("pagerank", total, refSum(pagerank.Reference(randomInput(p), p.itersOr(3))))
		},
	},

	graphApp("pagerank-1", "PR-1", "push-style PageRank, hugebubbles stand-in (Table 4)", BubblesInput, runGraphPagerank, rankRef),
	graphApp("pagerank-2", "PR-2", "push-style PageRank, cage15 stand-in (Table 4)", CageInput, runGraphPagerank, rankRef),
	graphApp("sssp-1", "SSSP-1", "level-synchronous Bellman-Ford, hugebubbles stand-in (Table 4)", BubblesInput, runSSSP, distRef),
	graphApp("sssp-2", "SSSP-2", "level-synchronous Bellman-Ford, cage15 stand-in (Table 4)", CageInput, runSSSP, distRef),
	graphApp("color-1", "color-1", "Jones-Plassmann coloring, hugebubbles stand-in (Table 4)", BubblesInput, runColor, nil),
	graphApp("color-2", "color-2", "Jones-Plassmann coloring, cage15 stand-in (Table 4)", CageInput, runColor, nil),

	{
		Name:  "kmeans",
		Desc:  "fixed-point Lloyd iterations, atomic accumulators (§6)",
		Bench: "kmeans",
		Run: func(sys rt.System, at rt.Where, p Params) Result {
			r := kmeans.RunAt(sys, p.kmeansConfig(sys.Nodes()), at)
			res := Result{
				Summary: fmt.Sprintf("clusters=%d iters=%d counts=%v", len(r.Counts), r.Iters, r.Counts),
				Ns:      r.Ns,
				Err:     r.Err,
			}
			// Every shard ends with the same centroids; node 0 alone
			// reports them so the shard Checks still sum to the whole
			// run's value.
			if at.Runs(0) {
				res.Check = centroidCheck(r.Centroids)
			}
			return res
		},
		Elastic: true,
		VerifyTotal: func(total uint64, p Params, nodes int) error {
			return matches("kmeans", total, centroidCheck(kmeans.Reference(p.kmeansConfig(nodes), nodes)))
		},
	},

	{
		Name:  "mer",
		Desc:  "Meraculous phase 1: distributed k-mer table build (§6)",
		Bench: "mer",
		Run: func(sys rt.System, at rt.Where, p Params) Result {
			r := mer.RunAt(sys, p.merConfig(sys.Nodes(), false), at)
			res := Result{Ns: r.Ns, Check: uint64(r.Inserted)}
			if !at.Full() {
				res.Summary = fmt.Sprintf("shard kmers inserted=%d distinct=%d (global expected %d)", r.Inserted, r.Distinct, r.Expected)
				return res
			}
			res.Summary = fmt.Sprintf("kmers inserted=%d distinct=%d (expected %d)", r.Inserted, r.Distinct, r.Expected)
			if r.Inserted != r.Expected {
				res.Err = fmt.Errorf("mer: inserted %d != expected %d", r.Inserted, r.Expected)
			}
			return res
		},
		VerifyTotal: func(total uint64, p Params, nodes int) error {
			cfg := p.merConfig(nodes, false)
			want := uint64(nodes) * uint64(cfg.ReadsPerNode) * uint64(cfg.ReadLen-cfg.K+1)
			if total != want {
				return fmt.Errorf("mer: reduced insert count %d != expected k-mers %d", total, want)
			}
			return nil
		},
	},

	{
		Name: "mer-full",
		Desc: "Meraculous phases 1+2: table build then AM-driven contig walk",
		Run: func(sys rt.System, at rt.Where, p Params) Result {
			r1, r2 := mer.RunFullAt(sys, p.merConfig(sys.Nodes(), true), at)
			res := Result{Ns: r1.Ns + r2.Ns, Check: mer2Check(r2)}
			if !at.Full() {
				res.Summary = fmt.Sprintf("shard phase1: %d kmers; phase2: %d contigs, total len %d, UU %d",
					r1.Inserted, r2.Contigs, r2.TotalLen, r2.UU)
				return res
			}
			res.Summary = fmt.Sprintf("phase1: %d kmers (%d distinct); phase2: %d contigs, total len %d, max %d, UU %d",
				r1.Inserted, r1.Distinct, r2.Contigs, r2.TotalLen, r2.MaxLen, r2.UU)
			if r1.Inserted != r1.Expected {
				res.Err = fmt.Errorf("mer-full: inserted %d != expected %d", r1.Inserted, r1.Expected)
			}
			return res
		},
		VerifyTotal: func(total uint64, p Params, nodes int) error {
			return matches("mer-full", total, mer2Check(mer.ReferencePhase2(p.merConfig(nodes, true), nodes)))
		},
	},

	// The two PGAS-verb apps follow the pre-existing twelve so the
	// order — and with it every pinned listing and checksum — is
	// unchanged for the old set.
	{
		Name: "bfs-dir",
		Desc: "direction-optimizing BFS: dense rounds broadcast the frontier with put_signal, scanners wait_until",
		Run: func(sys rt.System, at rt.Where, p Params) Result {
			g := randomInput(p)
			r := bfs.RunAt(sys, bfs.Config{G: g}, at)
			return Result{
				Summary: fmt.Sprintf("%v reached=%d levels=%d (bottom-up %d) levelSum=%d", g, r.Reached, r.Levels, r.BottomUp, r.LevelSum),
				Ns:      r.Ns,
				Check:   r.LevelSum, // additive: shards sum to the whole run's value
				Err:     r.Err,
			}
		},
		Elastic: true,
		VerifyTotal: func(total uint64, p Params, nodes int) error {
			want := bfs.ReferenceSum(randomInput(p), 0)
			if total != want {
				return fmt.Errorf("bfs-dir: reduced level sum %d != reference %d", total, want)
			}
			return nil
		},
	},

	{
		Name: "histogram",
		Desc: "distributed histogram summarized by device collectives and host team all-reductions",
		Run: func(sys rt.System, at rt.Where, p Params) Result {
			r := histogram.RunAt(sys, p.histogramConfig(sys.Nodes()), at)
			return Result{
				Summary: fmt.Sprintf("%ssamples=%d bucketMin=%d bucketMax=%d", shardTag(at), r.Samples, r.MinBucket, r.MaxBucket),
				Ns:      r.Ns,
				Check:   r.Check,
				Err:     r.Err,
			}
		},
		Elastic: true,
		VerifyTotal: func(total uint64, p Params, nodes int) error {
			want := histogram.ExpectedCheck(p.histogramConfig(nodes), nodes)
			if total != want {
				return fmt.Errorf("histogram: reduced check %d != reference %d", total, want)
			}
			return nil
		},
	},
}

// graphApp builds one of the six Table 4 graph workloads: a graph
// kind's entry point over a cached input, and the sequential reference
// its Check sums to (nil: coloring, whose ColorSum has none).
func graphApp(name, bench, desc string, input func(scale float64) *graph.Graph,
	run func(sys rt.System, g *graph.Graph, at rt.Where, p Params) Result,
	ref func(g *graph.Graph, p Params) []uint64) *App {
	a := &App{
		Name:  name,
		Desc:  desc,
		Bench: bench,
		Run: func(sys rt.System, at rt.Where, p Params) Result {
			return run(sys, input(p.scale()), at, p)
		},
	}
	if ref != nil {
		a.VerifyTotal = func(total uint64, p Params, _ int) error {
			return matches(name, total, refSum(ref(input(p.scale()), p)))
		}
	}
	return a
}

// matches is a VerifyTotal's verdict on a reduced total.
func matches(app string, total, want uint64) error {
	if total != want {
		return fmt.Errorf("%s: reduced check %d != sequential reference %d", app, total, want)
	}
	return nil
}

// refSum adds up a sequential reference vector: PageRank's ranks, or
// the distances of the vertices SSSP reached (no rank comes near Inf).
func refSum(v []uint64) (sum uint64) {
	for _, x := range v {
		if x != sssp.Inf {
			sum += x
		}
	}
	return sum
}

func runPagerank(sys rt.System, g *graph.Graph, at rt.Where, iters int) Result {
	r := pagerank.RunAt(sys, pagerank.Config{G: g, Iters: iters}, at)
	return Result{
		Summary: fmt.Sprintf("%v %srankSum=%.1f checksum=%016x", g, shardTag(at), r.RankSum, r.Checksum),
		Ns:      r.Ns,
		Check:   r.FixedSum,
		Err:     r.Err,
	}
}

func runGraphPagerank(sys rt.System, g *graph.Graph, at rt.Where, p Params) Result {
	return runPagerank(sys, g, at, p.itersOr(10))
}

func rankRef(g *graph.Graph, p Params) []uint64 { return pagerank.Reference(g, p.itersOr(10)) }

func distRef(g *graph.Graph, _ Params) []uint64 { return sssp.Reference(g, 0) }

func runSSSP(sys rt.System, g *graph.Graph, at rt.Where, _ Params) Result {
	r := sssp.RunAt(sys, sssp.Config{G: g, Source: 0}, at)
	return Result{
		Summary: fmt.Sprintf("%v %sreached=%d supersteps=%d distSum=%d", g, shardTag(at), r.Reached, r.Supersteps, r.DistSum),
		Ns:      r.Ns,
		Check:   r.DistSum,
	}
}

func runColor(sys rt.System, g *graph.Graph, at rt.Where, p Params) Result {
	r := color.RunAt(sys, color.Config{G: g, Seed: p.seedOr(7)}, at)
	res := Result{Ns: r.Ns, Check: r.ColorSum}
	if !at.Full() {
		res.Summary = fmt.Sprintf("%v shard colors=%d rounds=%d colorSum=%d", g, r.Colors, r.Rounds, r.ColorSum)
		return res
	}
	res.Summary = fmt.Sprintf("%v colors=%d rounds=%d (validated)", g, r.Colors, r.Rounds)
	if err := color.Validate(g, r.ColorAt); err != nil {
		res.Summary = fmt.Sprintf("INVALID COLORING: %v", err)
		res.Err = err
	}
	return res
}
