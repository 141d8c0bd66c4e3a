package gravel_test

import (
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gravel"
	"gravel/internal/core"
	"gravel/internal/models"
	"gravel/internal/pgas"
	"gravel/internal/rt"
	"gravel/internal/transport"
	"gravel/internal/wire"
)

// The unwind contract (DESIGN.md §4.6): every misuse or failure a run
// can meet comes back to the caller of Step, or of the host call that
// raised it, as a typed error within a deadline; never a hang, and
// never a panic on a goroutine the caller does not own (that would kill
// the test binary). TestUnwindTable checks it for every run-time error
// type × every models.Table row × every raise site × fabric.

const (
	unwindNodes   = 4        // in-process: node 0 runs on a device thread, node 3 on the Step goroutine
	unwindPerNode = 256 + 64 // two work-groups a node; the second, 64 lanes, raises
	unwindWithin  = 10 * time.Second
)

// unwindEnv is what one cell's provocation works on. variant is the
// model's row index: a row with several provocations rotates through
// them down the model column.
type unwindEnv struct {
	variant   int
	site      string
	bad       int // the node whose kernel raises
	sys       gravel.System
	tab       *gravel.Array  // 1 Ki cells: the good step's target
	data, sig *gravel.Array  // symmetric, 4 cells and 1 cell a node
	dc        *rt.DeviceColl // team {1, 2}: the raising nodes are not members
	h         uint8
	pair      *chaosPair // tcp cells
}

// want matches a typed error carrying its cell's coordinates.
type want struct {
	name  string
	match func(err error, e *unwindEnv) bool
}

// is wants an E for which ok holds.
func is[E error](ok func(E, *unwindEnv) bool) want {
	return want{reflect.TypeFor[E]().Elem().Name(), func(err error, e *unwindEnv) bool {
		var v E
		return errors.As(err, &v) && ok(v, e)
	}}
}

// hostCall is one node's part of a tcp host-call cell.
type hostCall func(c rt.Collectives, sp *pgas.Space, self int) error

// unwindRow is one error type and the ways the table raises it; which
// of kernel, host, fault and call are set picks its sites and fabrics.
type unwindRow struct {
	want
	// kernel raises from work-group 1 of the bad node (sites device and
	// step, chan), host from a host call (site host, chan). A sticky
	// failure outlives its call, so the next step must report it again;
	// after any other the cluster must run a good step exactly.
	kernel func(c rt.Ctx, e *unwindEnv, idx, one []uint64, dst []int)
	host   func(e *unwindEnv)
	sticky bool
	// fault fails the transport of a tcp pair while node 0's Step is
	// parked in the step vote (site host) or its kernel in WaitUntil
	// (site step); the next host collective must report it too. call is
	// a host call on each of callers (site host, tcp), after which the
	// pair must still fold a good collective.
	fault func(p *chaosPair)
	call  func(variant int) (callers []int, f hostCall)
}

func unwindRows() []*unwindRow {
	maskVerbs := []string{"Inc", "PutSignal", "WaitUntil"}
	badDest := func(e *unwindEnv) int { return []int{unwindNodes, -1}[e.variant%2] }
	peer := func(e *unwindEnv) int { return (e.bad + 1) % unwindNodes }
	// Each packet runs at both shard counts (1 + 3*(variant%2)).
	garbage := func(e *unwindEnv) []byte {
		if e.variant/2%2 == 0 {
			return []byte("ragged-payload") // 14 B: not a record multiple
		}
		return wire.AppendRecord(nil, wire.PackCmd(wire.OpInc, 0, 7), 0, 1) // array 7 is not allocated
	}
	type misuse struct {
		callers []int
		call    func(c rt.Collectives, self int) (uint64, error)
	}
	misuses := []misuse{
		{[]int{0}, func(c rt.Collectives, _ int) (uint64, error) { return c.AllReduce("u", rt.WorldTeam, rt.OpMax+1, 1) }},
		{[]int{0, 1}, func(c rt.Collectives, self int) (uint64, error) {
			return c.AllReduce("mo", rt.WorldTeam, rt.OpMin+rt.ReduceOp(self), 1) // the members disagree on the operator
		}},
		{[]int{0, 1}, func(c rt.Collectives, self int) (uint64, error) {
			return c.AllReduce(fmt.Sprint("mk", self), rt.WorldTeam, rt.OpSum, 1) // ... on the key
		}},
		{[]int{1}, func(c rt.Collectives, _ int) (uint64, error) { return c.AllReduce("nm", rt.TeamOf(0), rt.OpSum, 1) }},
		{[]int{0}, func(c rt.Collectives, _ int) (uint64, error) { return c.AllReduce("far", rt.TeamOf(0, 2), rt.OpSum, 1) }},
	}
	return []*unwindRow{
		{want: is(func(err *core.MaskError, e *unwindEnv) bool {
			return err.Verb == maskVerbs[e.variant%3] && err.Got == err.Want+1
		}), kernel: func(c rt.Ctx, e *unwindEnv, idx, one []uint64, _ []int) {
			long := make([]bool, len(idx)+1)
			switch e.variant % 3 {
			case 0:
				c.Inc(e.tab, idx, one, long)
			case 1:
				c.PutSignal(e.data, idx, one, e.sig, idx, long)
			default:
				c.WaitUntil(e.sig, idx, one, long)
			}
		}},
		{want: is(func(err *core.SignalError, e *unwindEnv) bool {
			if e.variant%2 == 0 {
				return err.Verb == "WaitUntil" && err.Node == e.bad && err.SigOwner == peer(e)
			}
			return err.Verb == "PutSignal" && err.Node == e.bad && err.DataOwner == peer(e) && err.SigOwner == e.bad
		}), kernel: func(c rt.Ctx, e *unwindEnv, idx, one []uint64, _ []int) {
			si := make([]uint64, len(idx))
			for l := range si {
				idx[l], si[l] = e.data.SymIndex(peer(e), 0), e.sig.SymIndex(e.bad, 0) // not co-owned
				if e.variant%2 == 0 {
					si[l] = e.sig.SymIndex(peer(e), 0) // waits must address local cells
				}
			}
			if e.variant%2 == 0 {
				c.WaitUntil(e.sig, si, one, nil)
			} else {
				c.PutSignal(e.data, idx, one, e.sig, si, nil)
			}
		}},
		{want: is(func(err *core.DestError, e *unwindEnv) bool {
			return err.Verb == "AM" && err.Node == e.bad && err.Dest == badDest(e) && err.Nodes == unwindNodes
		}), kernel: func(c rt.Ctx, e *unwindEnv, idx, one []uint64, dst []int) {
			dst[len(dst)-1] = badDest(e)
			c.AM(e.h, dst, idx, one, nil)
		}},
		{want: is(func(err *pgas.RangeError, e *unwindEnv) bool {
			return err.Array == e.tab.ID() && err.Index == uint64(e.tab.Len()) && err.Len == e.tab.Len()
		}), kernel: func(c rt.Ctx, e *unwindEnv, idx, one []uint64, _ []int) {
			idx[0] = uint64(e.tab.Len())
			c.Inc(e.tab, idx, one, nil)
		}, host: func(e *unwindEnv) { e.tab.Load(uint64(e.tab.Len())) }},
		{want: is(func(err *pgas.AllocError, e *unwindEnv) bool {
			return err.Kind == map[bool]string{true: "Alloc", false: "SymIndex"}[e.site == "host"]
		}), kernel: func(c rt.Ctx, e *unwindEnv, _, _ []uint64, _ []int) {
			e.tab.SymIndex(c.Node(), 0) // tab is not symmetric
		}, host: func(e *unwindEnv) { e.sys.Space().Alloc(0) }},
		{want: is(func(err *core.WireDecodeError, e *unwindEnv) bool {
			return err.Node == 1 && err.From == 0 && !err.Routed && err.Bytes == len(garbage(e)) && errors.Unwrap(err) != nil
		}), sticky: true, host: func(e *unwindEnv) {
			e.sys.(interface{ Fabric() core.Fabric }).Fabric().Send(0, 1, garbage(e), 1)
			e.sys.Step("after-bad-packet", make([]int, unwindNodes), 0, func(rt.Ctx) {})
		}},
		{want: is(func(err *rt.CollectiveError, e *unwindEnv) bool {
			switch {
			case e.pair != nil:
				return err.Op == "allreduce"
			case e.site == "host":
				return err.Op == "team"
			}
			return err.Op == "device-allreduce"
		}), kernel: func(c rt.Ctx, e *unwindEnv, _, _ []uint64, _ []int) {
			e.dc.AllReduce(c, rt.OpSum, 1)
		}, host: func(e *unwindEnv) {
			rt.TeamOf([][]int{nil, {1, -1}, {2, 2}}[e.variant%3]...) // empty, negative, duplicate
		}, call: func(variant int) ([]int, hostCall) {
			m := misuses[variant%len(misuses)]
			return m.callers, func(c rt.Collectives, _ *pgas.Space, self int) error {
				_, err := m.call(c, self)
				return err
			}
		}},
		{want: is(func(err *rt.SymmetryError, _ *unwindEnv) bool { return err.Min != err.Max }),
			call: func(int) ([]int, hostCall) {
				return []int{0, 1}, func(c rt.Collectives, sp *pgas.Space, self int) error {
					sp.SymAlloc(8 << (8 * self)) // a different allocation sequence on each node
					return rt.VerifySymmetric(c, sp, "unwind")
				}
			}},
		{want: is(func(err *transport.PeerDownError, _ *unwindEnv) bool { return err.Node == 1 }),
			fault: func(p *chaosPair) { p.runs[1].tcp.Kill() }},
		{want: is(func(err *transport.CoordDownError, e *unwindEnv) bool { return err.Addr == e.pair.addr }),
			fault: func(p *chaosPair) { p.stop(); p.coord.Kill() }},
		{want: is(func(err *transport.StaleGenerationError, _ *unwindEnv) bool {
			return err.Have == 1 && err.Want == 2 && err.Source == "coordinator"
		}), fault: func(p *chaosPair) { p.coord.BeginEpoch(2) }},
		{want: is(func(err *transport.RescaleError, _ *unwindEnv) bool { return err.Nodes == 3 && err.Gen == 2 }),
			fault: func(p *chaosPair) { p.coord.Rescale(3) }},
	}
}

// unwindCell is one cell: Type/model/site/fabric.
type unwindCell struct {
	row          *unwindRow
	model        string
	variant      int
	site, fabric string
}

func (c unwindCell) String() string {
	return c.row.name + "/" + c.model + "/" + c.site + "/" + c.fabric
}

// TestUnwindTable: every cell raises its error and gets it back at the
// caller, typed and with its coordinates. The coverage subtest holds the
// rows to the tree: every exported …Error struct of the non-test code
// has a row, except ConfigError (New's, before any run) and WorkerError
// (a launcher's report on a worker process).
func TestUnwindTable(t *testing.T) {
	rows := unwindRows()
	t.Run("coverage", func(t *testing.T) {
		var named []string
		for _, r := range rows {
			named = append(named, r.name)
		}
		if types := runtimeErrorTypes(t); !slices.Equal(types, slices.Sorted(slices.Values(named))) {
			t.Errorf("the tree's run-time error types are %v, the rows %v", types, named)
		}
	})
	var cells []unwindCell
	for _, r := range rows {
		for i, m := range models.Table {
			add := func(site, fabric string) { cells = append(cells, unwindCell{r, m.Name, i, site, fabric}) }
			if r.kernel != nil {
				add("device", "chan")
				add("step", "chan")
			}
			if r.host != nil {
				add("host", "chan")
			}
			if r.fault != nil {
				add("step", "tcp")
			}
			if r.fault != nil || r.call != nil {
				add("host", "tcp")
			}
		}
	}
	t.Logf("%d cells: %v", len(cells), cells)
	// A tcp cell mostly waits on the failure detector's timers, so eight
	// run side by side.
	var tcp sync.WaitGroup
	slots := make(chan struct{}, 8)
	for _, c := range cells {
		if c.fabric == "chan" {
			t.Run(c.String(), c.run)
			continue
		}
		tcp.Add(1)
		go func() {
			defer tcp.Done()
			slots <- struct{}{}
			defer func() { <-slots }()
			t.Run(c.String(), c.run)
		}()
	}
	tcp.Wait()
}

// runtimeErrorTypes lists the exported struct types named …Error of
// the module's non-test Go files, but ConfigError and WorkerError.
func runtimeErrorTypes(t *testing.T) []string {
	var out []string
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "." && (d.Name() == "benchmark" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")):
			return filepath.SkipDir // another module, fixtures, build output
		case d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go"):
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if ts, ok := n.(*ast.TypeSpec); ok && ts.Name.IsExported() && strings.HasSuffix(ts.Name.Name, "Error") {
				if _, ok := ts.Type.(*ast.StructType); ok && ts.Name.Name != "ConfigError" && ts.Name.Name != "WorkerError" {
					out = append(out, ts.Name.Name)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(out)
	return out
}

func (c unwindCell) run(t *testing.T) {
	e := &unwindEnv{variant: c.variant, site: c.site}
	if c.fabric == "chan" {
		c.runInProcess(t, e)
		return
	}
	e.pair = startChaosPair(t, c.model)
	if c.row.fault != nil {
		c.runFault(t, e)
	} else {
		c.runCall(t, e)
	}
}

func (c unwindCell) check(t *testing.T, e *unwindEnv, what string, err error) {
	t.Helper()
	if !c.row.match(err, e) {
		t.Fatalf("%s ended with %v (%T), want a %s with the cell's coordinates", what, err, err, c.row.name)
	}
}

// unwound runs f on a goroutine of its own, as a caller of the runtime,
// and returns what it panicked as an error (nil if it returned) within
// unwindWithin.
func unwound(t *testing.T, what string, f func()) error {
	t.Helper()
	res := make(chan error, 1)
	go func() {
		defer func() {
			r := recover()
			err, ok := r.(error)
			if r != nil && !ok {
				err = fmt.Errorf("panicked a non-error %v (%T)", r, r)
			}
			res <- err
		}()
		f()
	}()
	select {
	case err := <-res:
		return err
	case <-time.After(unwindWithin):
		t.Fatalf("%s did not return within %v", what, unwindWithin)
		return nil
	}
}

// runInProcess runs a chan cell on a 4-node cluster; resolver shards
// alternate 1 and 4 down the model column.
func (c unwindCell) runInProcess(t *testing.T, e *unwindEnv) {
	sys := gravel.New(gravel.Config{Model: c.model, Nodes: unwindNodes, ResolverShards: 1 + 3*(c.variant%2)})
	defer sys.Close()
	sp := sys.Space()
	e.sys, e.tab, e.sig, e.data = sys, sp.Alloc(1<<10), sp.SymAlloc(1), sp.SymAlloc(4)
	e.dc, e.h = rt.NewDeviceColl(sp, unwindNodes, rt.TeamOf(1, 2)), sys.RegisterAM(func(int, uint64, uint64) {})
	if c.site == "step" {
		e.bad = unwindNodes - 1
	}
	grid := slices.Repeat([]int{unwindPerNode}, unwindNodes)
	kernel := func(bad bool) rt.Kernel {
		return func(ctx rt.Ctx) {
			g := ctx.Group()
			idx, one, dst := make([]uint64, g.Size), make([]uint64, g.Size), make([]int, g.Size)
			for l := range idx {
				idx[l], one[l], dst[l] = uint64(g.GlobalID(l)*13+ctx.Node())%uint64(e.tab.Len()), 1, l%unwindNodes
			}
			if !bad {
				ctx.Inc(e.tab, idx, one, nil)
			} else if ctx.Node() == e.bad && g.ID == 1 {
				c.row.kernel(ctx, e, idx, one, dst)
			}
		}
	}
	raise := func() { sys.Step("bad", grid, 0, kernel(true)) }
	if c.site == "host" {
		raise = func() { c.row.host(e) }
	}
	c.check(t, e, "the raising call", unwound(t, "the raising call", raise))
	if c.row.sticky {
		next := func() { sys.Step("next", make([]int, unwindNodes), 0, func(rt.Ctx) {}) }
		c.check(t, e, "the next step", unwound(t, "the next step", next))
		return
	}
	if err := unwound(t, "the good step", func() { sys.Step("good", grid, 0, kernel(false)) }); err != nil {
		t.Fatalf("the good step after it: %v", err)
	}
	if got, want := e.tab.Sum(), uint64(unwindNodes*unwindPerNode); got != want {
		t.Errorf("table sum = %d after the good step, want %d", got, want)
	}
}

// runFault steps a tcp pair once together, parks node 0 alone, fails
// the transport under it, and wants the typed error out of node 0's
// Step inside the detection bound.
func (c unwindCell) runFault(t *testing.T, e *unwindEnv) {
	n0, n1 := &e.pair.runs[0], &e.pair.runs[1]
	arr, sig := n0.sys.Space().SymAlloc(32), n0.sys.Space().SymAlloc(1)
	n1.sys.Space().SymAlloc(32)
	n1.sys.Space().SymAlloc(1)
	step := func(r *nodeRun, grid []int, k rt.Kernel) {
		defer r.recoverErr()
		r.sys.Step("unwind", grid, 0, k)
	}
	inc := func(ctx rt.Ctx) {
		g := ctx.Group()
		idx, one := make([]uint64, g.Size), make([]uint64, g.Size)
		for l := range idx {
			idx[l], one[l] = arr.SymIndex(1, l%32), 1 // node 1's bank
		}
		ctx.Inc(arr, idx, one, nil)
	}
	var both sync.WaitGroup
	both.Add(1)
	go func() { defer both.Done(); step(n1, []int{0, 0}, func(rt.Ctx) {}) }()
	step(n0, []int{256, 0}, inc)
	both.Wait()
	if n0.err != nil || n1.err != nil {
		t.Fatalf("first step failed: %v / %v", n0.err, n1.err)
	}
	done := make(chan struct{})
	var parked func() bool
	if c.site == "host" {
		// Node 0's increments reach node 1, which is not stepping: node
		// 0's Step parks in the vote.
		go func() { defer close(done); step(n0, []int{256, 0}, inc) }()
		parked = func() bool { return n0.sys.(interface{ Fabric() core.Fabric }).Fabric().Progress().Parked() > 0 }
	} else {
		// Node 0's kernel waits for a signal nobody will send.
		var waiting atomic.Bool
		go func() {
			defer close(done)
			step(n0, []int{1, 0}, func(ctx rt.Ctx) {
				g := ctx.Group()
				mask, si, one := make([]bool, g.Size), make([]uint64, g.Size), make([]uint64, g.Size)
				mask[0], si[0], one[0] = true, sig.SymIndex(0, 0), 1
				waiting.Store(true)
				ctx.WaitUntil(sig, si, one, mask)
			})
		}()
		parked = waiting.Load
	}
	for t0 := time.Now(); !parked(); time.Sleep(100 * time.Microsecond) {
		if time.Since(t0) > unwindWithin {
			t.Fatal("node 0 never parked")
		}
	}
	c.row.fault(e.pair)
	select {
	case <-done:
	case <-time.After(2*chaosSuspect + 2*time.Second):
		t.Fatal("node 0's Step did not unwind inside the detection bound")
	}
	c.check(t, e, "node 0's Step", n0.err)
	_, err := n0.tcp.Collectives().AllReduce("after", rt.WorldTeam, rt.OpSum, 1)
	c.check(t, e, "node 0's next collective", err)
}

// runCall makes the row's host call on each of its callers, then wants
// a good collective, and a team of one, still to fold on both nodes.
func (c unwindCell) runCall(t *testing.T, e *unwindEnv) {
	callers, f := c.row.call(c.variant)
	for i, err := range pairCalls(t, e.pair, callers, f) {
		c.check(t, e, fmt.Sprintf("node %d's call", callers[i]), err)
	}
	for i, err := range pairCalls(t, e.pair, []int{0, 1}, func(c rt.Collectives, _ *pgas.Space, self int) error {
		if v, err := c.AllReduce("after", rt.WorldTeam, rt.OpSum, uint64(self+1)); err != nil || v != 3 {
			return fmt.Errorf("sum %d, %v; want 3", v, err)
		}
		if v, err := c.AllReduce("one", rt.TeamOf(self), rt.OpSum, 5); err != nil || v != 5 {
			return fmt.Errorf("team of one: %d, %v; want 5", v, err)
		}
		return nil
	}) {
		if err != nil {
			t.Errorf("node %d after the failed call: %v", i, err)
		}
	}
}

// pairCalls runs f as each member's host call, side by side, and
// returns their errors within unwindWithin.
func pairCalls(t *testing.T, p *chaosPair, members []int, f hostCall) []error {
	t.Helper()
	errs := make([]error, len(members))
	var wg sync.WaitGroup
	for i, m := range members {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = f(p.runs[m].tcp.Collectives(), p.runs[m].sys.Space(), m)
		}()
	}
	if err := unwound(t, fmt.Sprintf("the host calls on nodes %v", members), wg.Wait); err != nil {
		t.Fatal(err)
	}
	return errs
}

// chaosPair is a two-node in-process TCP cluster with the chaos tests'
// short failure-detection timeouts.
type chaosPair struct {
	runs  []nodeRun
	coord *transport.Coordinator
	addr  string
	stop  func() // closes the coordinator's listener
}

// startChaosPair brings up a pair running model. Teardown kills both
// transports first, so closing never waits out a drain handshake with a
// dead peer.
func startChaosPair(t *testing.T, model string) *chaosPair {
	t.Helper()
	p := &chaosPair{runs: []nodeRun{{model: model}, {model: model}}}
	p.coord, p.addr, p.stop = startChaosCoord(t, 2)
	t.Cleanup(p.stop)
	var started sync.WaitGroup
	for i := range p.runs {
		started.Add(1)
		go func() {
			defer started.Done()
			p.runs[i].start(i, 2, p.addr, nil, chaosKillOpts())
		}()
	}
	started.Wait()
	for i := range p.runs {
		if p.runs[i].err != nil {
			t.Fatalf("node %d failed to start: %v", i, p.runs[i].err)
		}
	}
	t.Cleanup(func() {
		for i := range p.runs {
			p.runs[i].tcp.Kill()
			p.runs[i].close()
		}
	})
	return p
}

// TestChaosParkedQuiesceUnwinds runs the table's PeerDownError and
// CoordDownError gravel/host/tcp cells, and the same with node 0's own
// transport killed, which fails it with no typed error of its own.
func TestChaosParkedQuiesceUnwinds(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test skipped in -short mode")
	}
	rows := unwindRows()
	row := func(name string) *unwindRow {
		return rows[slices.IndexFunc(rows, func(r *unwindRow) bool { return r.name == name })]
	}
	kill := &unwindRow{want: want{"error", func(err error, _ *unwindEnv) bool { return err != nil }},
		fault: func(p *chaosPair) { p.runs[0].tcp.Kill() }}
	for name, r := range map[string]*unwindRow{"kill": kill, "severed peer": row("PeerDownError"), "coordinator gone": row("CoordDownError")} {
		t.Run(name, unwindCell{r, "gravel", 0, "host", "tcp"}.run)
	}
}
