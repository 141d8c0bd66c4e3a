package bench

// GoldenScale is the scale testdata/modeled.json is written at, and the
// one the shape tests and the root benchmarks run.
const GoldenScale = 0.25

// Experiment is one table or figure: its -exp name and its driver, given
// the scale and one extra resolver-sweep bank count (0 for none).
type Experiment struct {
	Name string
	Run  func(scale float64, shards int) *Table
}

// Experiments is every experiment, in presentation order.
var Experiments = []Experiment{
	{"fig6", func(float64, int) *Table { return Fig6() }},
	{"fig8", func(s float64, _ int) *Table { return Fig8(s) }},
	{"table2", func(float64, int) *Table { return Table2() }},
	{"table5", func(s float64, _ int) *Table { return Table5(s) }},
	{"fig12", func(s float64, _ int) *Table { return Fig12(s) }},
	{"fig13", func(s float64, _ int) *Table { return Fig13(s) }},
	{"fig14", func(s float64, _ int) *Table { return Fig14(s) }},
	{"fig15", func(s float64, _ int) *Table { return Fig15(s) }},
	{"sec82", func(s float64, _ int) *Table { return Sec82(s) }},
	{"ablations", func(s float64, _ int) *Table { return Ablations(s) }},
	{"resolver", func(s float64, shards int) *Table { return Resolver(s, shards) }},
	{"pgas", func(s float64, _ int) *Table { return PGAS(s) }},
	{"aggstrategy", func(s float64, _ int) *Table { return AggStrategy(s) }},
}
