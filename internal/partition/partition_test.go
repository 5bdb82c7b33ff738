package partition

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"iddqsyn/internal/celllib"
	"iddqsyn/internal/circuits"
	"iddqsyn/internal/estimate"
)

func c17Estimator(t *testing.T) *estimate.Estimator {
	t.Helper()
	a, err := celllib.Annotate(circuits.C17(), celllib.Default())
	if err != nil {
		t.Fatal(err)
	}
	return estimate.New(a, estimate.DefaultParams())
}

func ids(t *testing.T, e *estimate.Estimator, names ...string) []int {
	t.Helper()
	out := make([]int, len(names))
	for i, n := range names {
		g, ok := e.A.Circuit.GateByName(n)
		if !ok {
			t.Fatalf("gate %s missing", n)
		}
		out[i] = g.ID
	}
	return out
}

func paperOptimum(t *testing.T, e *estimate.Estimator) *Partition {
	t.Helper()
	p, err := New(e, [][]int{
		ids(t, e, "g1", "g3", "g5"),
		ids(t, e, "g2", "g4", "g6"),
	}, PaperWeights(), DefaultConstraints())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewValidation(t *testing.T) {
	e := c17Estimator(t)
	all := e.A.Circuit.LogicGates()
	cases := map[string][][]int{
		"incomplete":   {all[:3]},
		"empty module": {all, {}},
		"duplicate":    {all, all[:1]},
		"input":        {append([]int{e.A.Circuit.Inputs[0]}, all...)},
		"out of range": {append([]int{-1}, all...)},
	}
	for name, groups := range cases {
		if _, err := New(e, groups, PaperWeights(), DefaultConstraints()); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
	p, err := New(e, [][]int{all}, PaperWeights(), DefaultConstraints())
	if err != nil {
		t.Fatalf("single module rejected: %v", err)
	}
	if err := p.Verify(); err != nil {
		t.Errorf("Verify: %v", err)
	}
}

func TestCostsC17(t *testing.T) {
	e := c17Estimator(t)
	p := paperOptimum(t, e)
	cv := p.Costs()
	if cv.Modules != 2 {
		t.Errorf("c5 = %g, want 2", cv.Modules)
	}
	if cv.SensorArea <= 0 || cv.LogArea <= 0 {
		t.Error("sensor area must be positive")
	}
	if cv.DelayOverhead <= 0 {
		t.Error("delay overhead must be positive with sensors present")
	}
	if cv.TestTime < cv.DelayOverhead {
		t.Error("test-time overhead includes delay overhead plus settling")
	}
	if cv.DBIc <= cv.DNominal {
		t.Error("D_BIC must exceed D")
	}
	if cv.Separation <= 0 || cv.LogSeparation <= 0 {
		t.Error("separation of multi-gate modules must be positive")
	}
	want := 9*cv.LogArea + 1e5*cv.DelayOverhead + cv.LogSeparation + cv.TestTime + 10*cv.Modules
	if math.Abs(p.Cost()-want) > 1e-9 {
		t.Errorf("Cost = %g, want %g", p.Cost(), want)
	}
}

func TestFeasibilityC17(t *testing.T) {
	e := c17Estimator(t)
	p := paperOptimum(t, e)
	// Six NAND2 gates leak ~tens of pA each; threshold 1 µA gives
	// discriminability in the thousands — easily feasible at d = 10.
	if !p.Feasible() {
		t.Errorf("C17 partition should be feasible, worst d = %g", p.WorstDiscriminability())
	}
	// An absurd constraint must fail.
	p.Cons.MinDiscriminability = 1e12
	if p.Feasible() {
		t.Error("d = 1e12 should be infeasible")
	}
}

func TestMoveGates(t *testing.T) {
	e := c17Estimator(t)
	p := paperOptimum(t, e)
	g3 := ids(t, e, "g3")[0]
	costBefore := p.Cost()

	to, err := p.MoveGates([]int{g3}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if to != 1 {
		t.Errorf("target index = %d, want 1", to)
	}
	if p.ModuleOf(g3) != 1 {
		t.Error("g3 should now be in module 1")
	}
	if err := p.Verify(); err != nil {
		t.Errorf("Verify after move: %v", err)
	}
	if p.Cost() == costBefore {
		t.Error("cost should change after the move")
	}
	if n := p.ModuleSize(0); n != 2 {
		t.Errorf("module 0 has %d gates, want 2", n)
	}
}

func TestMoveGatesErrors(t *testing.T) {
	e := c17Estimator(t)
	p := paperOptimum(t, e)
	g2 := ids(t, e, "g2")[0]
	if _, err := p.MoveGates([]int{g2}, 0, 1); err == nil {
		t.Error("want error: g2 not in module 0")
	}
	if _, err := p.MoveGates([]int{g2}, 1, 1); err == nil {
		t.Error("want error: same module")
	}
	if _, err := p.MoveGates([]int{g2}, 1, 7); err == nil {
		t.Error("want error: target out of range")
	}
}

func TestMoveAllGatesDeletesModule(t *testing.T) {
	e := c17Estimator(t)
	p := paperOptimum(t, e)
	m0 := p.AppendModuleGates(nil, 0)
	to, err := p.MoveGates(m0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumModules() != 1 {
		t.Fatalf("modules = %d, want 1 after emptying", p.NumModules())
	}
	if to != 0 {
		t.Errorf("adjusted target = %d, want 0 after deletion shift", to)
	}
	if err := p.Verify(); err != nil {
		t.Errorf("Verify: %v", err)
	}
	if got := p.Costs().Modules; got != 1 {
		t.Errorf("c5 = %g, want 1", got)
	}
}

func TestBoundaryGatesC17(t *testing.T) {
	// Reproduce the §4.3 example: for partition {(4,6),(2,3),(1,5)} the
	// module (4,6) has boundary gates {g4, g6}.
	e := c17Estimator(t)
	p, err := New(e, [][]int{
		ids(t, e, "g4", "g6"),
		ids(t, e, "g2", "g3"),
		ids(t, e, "g1", "g5"),
	}, PaperWeights(), DefaultConstraints())
	if err != nil {
		t.Fatal(err)
	}
	bg := p.BoundaryGates(0)
	want := ids(t, e, "g4", "g6")
	if len(bg) != 2 || bg[0] != want[0] || bg[1] != want[1] {
		t.Errorf("boundary gates = %v, want %v", bg, want)
	}
	// In the paper's optimum {(1,3,5),(2,4,6)}, module 0's only gate with
	// an outside connection is g3 (g1 and g5 connect only within the
	// module — primary inputs don't count).
	opt := paperOptimum(t, e)
	g3 := ids(t, e, "g3")[0]
	if got := opt.BoundaryGates(0); len(got) != 1 || got[0] != g3 {
		t.Errorf("optimum module 0 boundary = %v, want [g3]", got)
	}
}

func TestConnectedModules(t *testing.T) {
	e := c17Estimator(t)
	p, err := New(e, [][]int{
		ids(t, e, "g1", "g2"),
		ids(t, e, "g3", "g4"),
		ids(t, e, "g5", "g6"),
	}, PaperWeights(), DefaultConstraints())
	if err != nil {
		t.Fatal(err)
	}
	// g1 connects to g5 (module 2) only (fanin I1, I3 are inputs).
	g1 := ids(t, e, "g1")[0]
	if got := p.ConnectedModules(g1); len(got) != 1 || got[0] != 2 {
		t.Errorf("ConnectedModules(g1) = %v, want [2]", got)
	}
	// g3 connects to g2 (module 0), g5 and g6 (module 2).
	g3 := ids(t, e, "g3")[0]
	if got := p.ConnectedModules(g3); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("ConnectedModules(g3) = %v, want [0 2]", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	e := c17Estimator(t)
	p := paperOptimum(t, e)
	origCost := p.Cost()
	q := p.Clone()
	g3 := ids(t, e, "g3")[0]
	if _, err := q.MoveGates([]int{g3}, 0, 1); err != nil {
		t.Fatal(err)
	}
	if p.Cost() != origCost {
		t.Error("mutating the clone changed the parent's cost")
	}
	if p.ModuleOf(g3) != 0 {
		t.Error("mutating the clone changed the parent's assignment")
	}
	if q.ModuleOf(g3) != 1 {
		t.Error("clone did not take the move")
	}
	if err := p.Verify(); err != nil {
		t.Errorf("parent Verify: %v", err)
	}
	if err := q.Verify(); err != nil {
		t.Errorf("clone Verify: %v", err)
	}
}

// Property: incremental cost after random moves equals the cost of a
// freshly constructed partition with the same groups.
func TestIncrementalMatchesFresh(t *testing.T) {
	e := c17Estimator(t)
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := paperOptimumQuick(e)
		for step := 0; step < 6; step++ {
			if p.NumModules() < 2 {
				break
			}
			from := rng.Intn(p.NumModules())
			gates := p.AppendModuleGates(nil, from)
			g := gates[rng.Intn(len(gates))]
			targets := p.ConnectedModules(g)
			if len(targets) == 0 {
				continue
			}
			to := targets[rng.Intn(len(targets))]
			if _, err := p.MoveGates([]int{g}, from, to); err != nil {
				return false
			}
			if err := p.Verify(); err != nil {
				return false
			}
		}
		fresh, err := New(e, p.Groups(), p.W, p.Cons)
		if err != nil {
			return false
		}
		return math.Abs(p.Cost()-fresh.Cost()) < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func paperOptimumQuick(e *estimate.Estimator) *Partition {
	c := e.A.Circuit
	id := func(n string) int {
		g, _ := c.GateByName(n)
		return g.ID
	}
	p, err := New(e, [][]int{
		{id("g1"), id("g3"), id("g5")},
		{id("g2"), id("g4"), id("g6")},
	}, PaperWeights(), DefaultConstraints())
	if err != nil {
		panic(err)
	}
	return p
}

func TestFinerPartitionTradeoffs(t *testing.T) {
	// Splitting the whole circuit into more modules must increase sensor
	// area (replicated detection circuitry) and the module count, while
	// improving the worst-module discriminability.
	e := c17Estimator(t)
	all := e.A.Circuit.LogicGates()
	one, err := New(e, [][]int{all}, PaperWeights(), DefaultConstraints())
	if err != nil {
		t.Fatal(err)
	}
	two := paperOptimum(t, e)
	if two.Costs().SensorArea <= one.Costs().SensorArea {
		t.Errorf("2 sensors (%g) should cost more area than 1 (%g)",
			two.Costs().SensorArea, one.Costs().SensorArea)
	}
	if two.WorstDiscriminability() <= one.WorstDiscriminability() {
		t.Error("finer partition must improve discriminability")
	}
}

func TestStringSummary(t *testing.T) {
	e := c17Estimator(t)
	p := paperOptimum(t, e)
	s := p.String()
	if len(s) == 0 || s[:9] != "partition" {
		t.Errorf("String() = %q", s)
	}
}

func TestPaperWeights(t *testing.T) {
	w := PaperWeights()
	if w.Area != 9 || w.Delay != 1e5 || w.Separation != 1 || w.TestTime != 1 || w.Modules != 10 {
		t.Errorf("PaperWeights = %+v", w)
	}
}
