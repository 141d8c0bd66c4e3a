package main

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"gravel"
	"gravel/internal/core"
	"gravel/internal/timemodel"
	"gravel/internal/transport"
)

// spec names a workload: which model, fabric and resolver sharding the
// system is built with, and the shape and distribution of its stream.
type spec struct {
	name, why string
	model     string
	tcp       bool // 2-node in-process TCP cluster over 127.0.0.1 (host loopback, not a real link)
	shards    int
	dist      int
	sh        shape
}

var (
	bulkRounds  = []int{verbInc, verbInc, verbInc, verbInc}
	mixedRounds = []int{verbInc, verbPut, verbAM, verbInc}
)

// The four workloads. Bulk shapes step 64 WGs per node x 4 verb calls
// per WG = 65 536 messages per node per step.
var specs = []spec{
	{
		name:  "gups-bulk",
		why:   "uniform Inc over a cache-resident table, chan fabric, 1 shard: kernel, queue, ticket repack and resolve do the work, the fabric almost none",
		model: gravel.ModelGravel, shards: 1, dist: distUniform,
		sh: shape{wgs: 64, rounds: bulkRounds, stepsPerRep: 48, distinct: 8},
	},
	{
		name:  "gups-tcp-sharded",
		why:   "100% remote Inc over an in-process 2-node TCP cluster on host loopback, 2 shards: wire, transport, bank demux and sharded resolve do the work",
		model: gravel.ModelGravel, tcp: true, shards: 2, dist: distPeer,
		sh: shape{wgs: 64, rounds: bulkRounds, stepsPerRep: 48, distinct: 8},
	},
	{
		name:  "fine-steps",
		why:   "512 messages per step: per-step fixed cost (launch, timeout flush, quiescence, phase record) dominates; the latency counterweight to the bulk workloads",
		model: gravel.ModelGravel, shards: 1, dist: distUniform,
		sh: shape{wgs: 1, rounds: []int{verbInc}, stepsPerRep: 2000, distinct: 200},
	},
	{
		name:  "mixed-archive-zipf",
		why:   "gravel-archive model, zipf(1) Inc + Put + AM, 2 shards: archive append replaces queue and repack, AMs sit beside atomics, a hot word pins one bank",
		model: gravel.ModelGravelArchive, shards: 2, dist: distZipf,
		sh: shape{wgs: 64, rounds: mixedRounds, stepsPerRep: 48, distinct: 8},
	},
}

func specByName(name string) *spec {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i]
		}
	}
	return nil
}

// scratch is a work-group's lane-indexed argument registers. Pooled so
// the benchmark's own kernel adds no allocations to allocs_per_kmsg.
type scratch struct {
	a, b [wgSize]uint64
	dest [wgSize]int
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

var ones = func() []uint64 {
	o := make([]uint64, wgSize)
	for i := range o {
		o[i] = 1
	}
	return o
}()

// instance is one built workload: the system (two of them under TCP,
// one per hosted node), its arrays, its stream and the running oracle.
type instance struct {
	sp  *spec
	st  *stream
	sys []gravel.System
	tab []*gravel.Array // Inc target, per system
	put []*gravel.Array // Put slots, per system (nil without a Put round)
	am  [nodes]atomic.Int64
	ln  net.Listener // TCP coordinator listener

	grids   [][]int
	kernels []gravel.Kernel
	cur     int // distinct step the next Step replays; written between Steps only

	// Oracle state: what the arrays must hold after the steps run so far.
	expInc  int64
	expAM   [nodes]int64
	expPut  uint64
	stepNs  []float64 // wall ns of every timed Step call
	failure string    // first oracle or determinism violation
}

// clusterOf exposes the per-node clocks behind a System; every model
// used here is (or embeds) a *core.Cluster.
type clusterOf interface {
	Node(int) *core.Node
	Fabric() core.Fabric
}

// build constructs a workload from the seed: stream tables, system,
// TCP join, arrays and handlers, then one warm-up rep. Its duration is
// setup_s.
func build(sp *spec, seed uint64) (in *instance, err error) {
	in = &instance{sp: sp, st: genStream(seed, sp.name, sp.sh, sp.dist)}
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("build %s: %v", sp.name, p)
		}
		if err != nil {
			in.close()
		}
	}()
	cfg := gravel.Config{Model: sp.model, Nodes: nodes, WGSize: wgSize, ResolverShards: sp.shards}
	if sp.tcp {
		ln, lerr := net.Listen("tcp", "127.0.0.1:0")
		if lerr != nil {
			return nil, lerr
		}
		in.ln = ln
		go transport.NewCoordinator(nodes).Serve(ln)
		in.sys = make([]gravel.System, nodes)
		errs := make([]error, nodes)
		var wg sync.WaitGroup
		for i := 0; i < nodes; i++ {
			wg.Add(1)
			go func(i int) { // the join blocks until both processes-in-miniature arrive
				defer wg.Done()
				c := cfg
				c.Transport = "tcp"
				c.TransportOpts = gravel.TransportOptions{Self: i, Coord: ln.Addr().String()}
				in.sys[i], errs[i] = gravel.NewChecked(c)
			}(i)
		}
		wg.Wait()
		for _, e := range errs {
			if e != nil {
				return nil, e
			}
		}
	} else {
		sys, nerr := gravel.NewChecked(cfg)
		if nerr != nil {
			return nil, nerr
		}
		in.sys = []gravel.System{sys}
	}
	for i, sys := range in.sys {
		tab := sys.Space().Alloc(tableSize)
		var put *gravel.Array
		if in.st.hasVerb(verbPut) {
			put = sys.Space().Alloc(in.st.putSlots())
		}
		var h uint8
		if in.st.hasVerb(verbAM) {
			// Handlers run serialized per node on bank 0; the atomic is
			// for the oracle's read from the host goroutine.
			h = sys.RegisterAM(func(node int, a, b uint64) { in.am[node].Add(int64(b)) })
		}
		in.tab = append(in.tab, tab)
		in.put = append(in.put, put)
		grid := make([]int, nodes)
		for n := range grid {
			if !sp.tcp || n == i {
				grid[n] = sp.sh.wgs * wgSize
			}
		}
		in.grids = append(in.grids, grid)
		in.kernels = append(in.kernels, in.kernel(tab, put, h))
	}
	if r := in.rep(nil, -1); !r.ok {
		return nil, fmt.Errorf("warm-up rep of %s: %s", sp.name, in.failure)
	}
	in.stepNs = in.stepNs[:0]
	return in, nil
}

// kernel is the device code: it only reads the pre-generated tables
// into lane registers and calls Ctx verbs.
func (in *instance) kernel(tab, put *gravel.Array, amH uint8) gravel.Kernel {
	st := in.st
	return func(c gravel.Ctx) {
		g := c.Group()
		sc := scratchPool.Get().(*scratch)
		a, b := sc.a[:g.Size], sc.b[:g.Size]
		for round, verb := range st.sh.rounds {
			base := st.at(in.cur, c.Node(), g.ID, round)
			idx := st.idx[base : base+wgSize]
			if st.val == nil {
				g.Vector(func(l int) { a[l] = uint64(idx[l]) })
				c.Inc(tab, a, ones[:g.Size], nil)
				continue
			}
			val := st.val[base : base+wgSize]
			g.VectorN(2, func(l int) { a[l], b[l] = uint64(idx[l]), uint64(val[l]) })
			switch verb {
			case verbInc:
				c.Inc(tab, a, b, nil)
			case verbPut:
				c.Put(put, a, b, nil)
			case verbAM:
				dest := sc.dest[:g.Size]
				tbl := st.dest[base : base+wgSize]
				g.Vector(func(l int) { dest[l] = int(tbl[l]) })
				c.AM(amH, dest, a, b, nil)
			}
		}
		scratchPool.Put(sc)
	}
}

// step runs one Step on every hosted system (one host goroutine per
// hosted node under TCP, the caller's goroutine otherwise) and returns
// its wall time. A typed error unwinding Step is returned, not
// re-panicked.
func (in *instance) step(d int) (ns int64, err error) {
	in.cur = d
	t0 := time.Now()
	if len(in.sys) == 1 {
		err = safeStep(in.sys[0], in.grids[0], in.kernels[0])
		return time.Since(t0).Nanoseconds(), err
	}
	errs := make([]error, len(in.sys))
	var wg sync.WaitGroup
	for i := range in.sys {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = safeStep(in.sys[i], in.grids[i], in.kernels[i])
		}(i)
	}
	wg.Wait()
	ns = time.Since(t0).Nanoseconds()
	for _, e := range errs {
		if e != nil {
			return ns, e
		}
	}
	return ns, nil
}

func safeStep(sys gravel.System, grid []int, k gravel.Kernel) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("step unwound: %v", p)
		}
	}()
	sys.Step("s", grid, 0, k)
	return nil
}

// clockSum adds up the hosted nodes' modeled per-resource clocks and
// applied-message counts across the instance's systems.
func (in *instance) clockSum() timemodel.Snapshot {
	var t timemodel.Snapshot
	for _, sys := range in.sys {
		cl := sys.(clusterOf)
		for n := 0; n < nodes; n++ {
			if !cl.Fabric().Hosts(n) {
				continue
			}
			s := cl.Node(n).Clocks.Snapshot()
			t.GPU += s.GPU
			t.Agg += s.Agg
			t.Net += s.Net
			t.WireSend += s.WireSend
			t.NetMsgs += s.NetMsgs
		}
	}
	return t
}

// virtualNs is the cluster's modeled time so far: every process of a
// TCP cluster records its own node's phases, and the slowest one is
// the cluster's.
func (in *instance) virtualNs() float64 {
	m := 0.0
	for _, sys := range in.sys {
		if v := sys.VirtualTimeNs(); v > m {
			m = v
		}
	}
	return m
}

// repResult is what one rep (stepsPerRep consecutive steps) measured.
type repResult struct {
	wallNs, cpuNs int64
	mallocs       uint64
	msgs          int64 // applied, from the nodes' clocks
	modelNs       float64
	clk           timemodel.Snapshot // modeled per-resource deltas
	ok            bool
}

func cpuNow() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// rep runs one rep and checks it against the oracle. rec, when non-nil
// and on, records a span per rep and per Step.
func (in *instance) rep(rec *recorder, id int) repResult {
	m0 := mallocs()
	clk0, v0 := in.clockSum(), in.virtualNs()
	repSpan := rec.begin("rep:"+in.sp.name, -1, id)
	cpu0, t0 := cpuNow(), time.Now()
	for s := 0; s < in.sp.sh.stepsPerRep; s++ {
		d := s % in.st.sh.distinct
		sp := rec.begin("step", repSpan, id)
		ns, err := in.step(d)
		rec.end(sp)
		in.stepNs = append(in.stepNs, float64(ns))
		if err != nil {
			in.fail(err.Error())
			return repResult{}
		}
		in.expInc += in.st.incs[d]
		in.expPut = in.st.putSum[d]
		for n := range in.expAM {
			in.expAM[n] += in.st.amSum[d][n]
		}
	}
	r := repResult{wallNs: time.Since(t0).Nanoseconds(), cpuNs: cpuNow() - cpu0}
	rec.end(repSpan)
	r.mallocs = mallocs() - m0
	clk := in.clockSum()
	r.clk = clk.Sub(clk0)
	r.msgs = r.clk.NetMsgs
	r.modelNs = in.virtualNs() - v0
	r.ok = in.check(r.msgs)
	return r
}

func (in *instance) fail(why string) {
	if in.failure == "" {
		in.failure = why
	}
}

// check compares the arrays and the applied-message count with what the
// generator says they must be.
func (in *instance) check(msgs int64) bool {
	if want := in.st.repMsgs(); msgs != want {
		in.fail(fmt.Sprintf("applied %d messages in a rep, generator says %d", msgs, want))
		return false
	}
	var inc, put uint64
	for i := range in.sys {
		inc += in.tab[i].Sum()
		if in.put[i] != nil {
			put += in.put[i].Sum()
		}
	}
	if inc != uint64(in.expInc) {
		in.fail(fmt.Sprintf("table sum %d, want %d increments", inc, in.expInc))
		return false
	}
	if put != in.expPut {
		in.fail(fmt.Sprintf("put-slot sum %d, want %d", put, in.expPut))
		return false
	}
	for n := range in.expAM {
		if got := in.am[n].Load(); got != in.expAM[n] {
			in.fail(fmt.Sprintf("node %d AM sum %d, want %d", n, got, in.expAM[n]))
			return false
		}
	}
	return true
}

// close tears the systems down (concurrently: a TCP close handshakes
// with the peer) and stops the coordinator.
func (in *instance) close() {
	var wg sync.WaitGroup
	for _, sys := range in.sys {
		if sys == nil {
			continue
		}
		wg.Add(1)
		go func(sys gravel.System) {
			defer wg.Done()
			sys.Close()
		}(sys)
	}
	wg.Wait()
	if in.ln != nil {
		in.ln.Close()
	}
}
