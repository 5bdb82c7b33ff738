package partcheck

import (
	"math"
	"strings"
	"testing"

	"iddqsyn/internal/celllib"
	"iddqsyn/internal/circuit"
	"iddqsyn/internal/circuits"
	"iddqsyn/internal/estimate"
	"iddqsyn/internal/obs"
	"iddqsyn/internal/partition"
)

func c17Estimator(t *testing.T) (*circuit.Circuit, *estimate.Estimator) {
	t.Helper()
	c := circuits.C17()
	a, err := celllib.Annotate(c, celllib.Default())
	if err != nil {
		t.Fatal(err)
	}
	return c, estimate.New(a, estimate.DefaultParams())
}

// ids maps gate names to IDs.
func ids(t *testing.T, c *circuit.Circuit, names ...string) []int {
	t.Helper()
	out := make([]int, len(names))
	for i, n := range names {
		g, ok := c.GateByName(n)
		if !ok {
			t.Fatalf("no gate %q in %s", n, c.Name)
		}
		out[i] = g.ID
	}
	return out
}

func wantConstraint(t *testing.T, r *Report, constraint string) {
	t.Helper()
	if r.OK() {
		t.Fatalf("report unexpectedly clean, want %s violation", constraint)
	}
	for _, v := range r.Violations {
		if v.Constraint == constraint {
			return
		}
	}
	t.Errorf("no %s violation in report:\n%s", constraint, r)
}

func TestVerifyAcceptsPaperPartition(t *testing.T) {
	c, e := c17Estimator(t)
	groups := [][]int{
		ids(t, c, "g1", "g3", "g5"),
		ids(t, c, "g2", "g4", "g6"),
	}
	r := VerifyStructure(c, groups)
	if !r.OK() {
		t.Fatalf("paper partition rejected:\n%s", r)
	}
	if err := r.Err(); err != nil {
		t.Errorf("Err() = %v on a clean report", err)
	}
	// The same grouping with estimator bounds at the module's actual
	// values must also pass.
	d := e.EvalModule(groups[0]).Discriminability(e.P.IDDQth)
	if r := Verify(c, groups, e, Feasibility(d*0.9)); !r.OK() {
		t.Errorf("feasible partition rejected:\n%s", r)
	}
}

func TestVerifyRejectsOverlap(t *testing.T) {
	c, _ := c17Estimator(t)
	groups := [][]int{
		ids(t, c, "g1", "g3", "g5"),
		ids(t, c, "g2", "g4", "g6", "g1"), // g1 twice
	}
	r := VerifyStructure(c, groups)
	wantConstraint(t, r, ConstraintCover)
	if err := r.Err(); err == nil || !strings.Contains(err.Error(), ConstraintCover) {
		t.Errorf("Err() = %v, want it to name %s", err, ConstraintCover)
	}
}

func TestVerifyRejectsMissingGate(t *testing.T) {
	c, _ := c17Estimator(t)
	groups := [][]int{
		ids(t, c, "g1", "g3", "g5"),
		ids(t, c, "g2", "g4"), // g6 unassigned
	}
	r := VerifyStructure(c, groups)
	wantConstraint(t, r, ConstraintCover)
	if !strings.Contains(r.String(), "g6") {
		t.Errorf("missing-gate report should name g6:\n%s", r)
	}
}

func TestVerifyRejectsBadGroupContents(t *testing.T) {
	c, _ := c17Estimator(t)
	full := [][]int{
		ids(t, c, "g1", "g2", "g3", "g4", "g5", "g6"),
	}
	for _, tc := range []struct {
		name   string
		groups [][]int
	}{
		{"empty module", append(full, []int{})},
		{"out of range", append(full, []int{999})},
		{"negative", append(full, []int{-1})},
		{"primary input", append(full, ids(t, c, "I1"))},
	} {
		r := VerifyStructure(c, tc.groups)
		if r.OK() {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		wantConstraint(t, r, ConstraintCover)
	}
}

// twoGateRing returns a hand-built netlist whose two NAND gates feed
// each other — adjacency-consistent but cyclic.
func twoGateRing() *circuit.Circuit {
	return &circuit.Circuit{
		Name: "ring",
		Gates: []circuit.Gate{
			{ID: 0, Name: "in", Type: circuit.Input, Fanout: []int{1}},
			{ID: 1, Name: "g1", Type: circuit.Nand, Fanin: []int{0, 2}, Fanout: []int{2}},
			{ID: 2, Name: "g2", Type: circuit.Nand, Fanin: []int{1}, Fanout: []int{1}},
		},
		Inputs:  []int{0},
		Outputs: []int{2},
	}
}

func TestVerifyRejectsCyclicNetlist(t *testing.T) {
	c := twoGateRing()
	r := VerifyStructure(c, [][]int{{1, 2}})
	wantConstraint(t, r, ConstraintAcyclic)
}

func TestVerifyRejectsInconsistentAdjacency(t *testing.T) {
	c := &circuit.Circuit{
		Name: "broken",
		Gates: []circuit.Gate{
			{ID: 0, Name: "in", Type: circuit.Input}, // fanout omits g1
			{ID: 1, Name: "g1", Type: circuit.Not, Fanin: []int{0}},
		},
		Inputs:  []int{0},
		Outputs: []int{1},
	}
	r := VerifyStructure(c, [][]int{{1}})
	wantConstraint(t, r, ConstraintAdjacency)

	c2 := &circuit.Circuit{
		Name: "badid",
		Gates: []circuit.Gate{
			{ID: 0, Name: "in", Type: circuit.Input, Fanout: []int{1}},
			{ID: 7, Name: "g1", Type: circuit.Not, Fanin: []int{0}}, // ID != index
		},
		Inputs:  []int{0},
		Outputs: []int{1},
	}
	r2 := VerifyStructure(c2, [][]int{{1}})
	wantConstraint(t, r2, ConstraintAdjacency)
}

func TestVerifyNamesInfeasibleDiscriminability(t *testing.T) {
	c, e := c17Estimator(t)
	groups := [][]int{ids(t, c, "g1", "g2", "g3", "g4", "g5", "g6")}
	d := e.EvalModule(groups[0]).Discriminability(e.P.IDDQth)
	r := Verify(c, groups, e, Feasibility(d*2))
	wantConstraint(t, r, ConstraintDiscriminability)
	if err := r.Err(); err == nil || !strings.Contains(err.Error(), ConstraintDiscriminability) {
		t.Errorf("Err() = %v, want it to name %s", err, ConstraintDiscriminability)
	}
}

func TestVerifyModuleBounds(t *testing.T) {
	c, e := c17Estimator(t)
	groups := [][]int{ids(t, c, "g1", "g2", "g3", "g4", "g5", "g6")}
	m := e.EvalModule(groups[0])
	for _, tc := range []struct {
		constraint string
		lim        Limits
	}{
		{ConstraintSettle, Limits{MaxSettle: m.Settle / 2}},
		{ConstraintSensorArea, Limits{MaxSensorArea: m.SensorArea / 2}},
		{ConstraintPeakCurrent, Limits{MaxPeakCurrent: m.IDDMax / 2}},
	} {
		r := Verify(c, groups, e, tc.lim)
		wantConstraint(t, r, tc.constraint)
		// The same bound relaxed past the actual value must pass.
		relaxed := Limits{
			MaxSettle:      tc.lim.MaxSettle * 4,
			MaxSensorArea:  tc.lim.MaxSensorArea * 4,
			MaxPeakCurrent: tc.lim.MaxPeakCurrent * 4,
		}
		if r := Verify(c, groups, e, relaxed); !r.OK() {
			t.Errorf("%s: relaxed bound still rejected:\n%s", tc.constraint, r)
		}
	}
}

// copyOf returns a module with m's exported terms and no delay vector
// built yet, for a test to tamper with.
func copyOf(m *estimate.Module) *estimate.Module {
	return &estimate.Module{
		Gates: m.Gates, IDDMax: m.IDDMax, Rs: m.Rs, Cs: m.Cs, Tau: m.Tau,
		SensorArea: m.SensorArea, LeakND: m.LeakND, Settle: m.Settle,
		Separation: m.Separation, Activity: m.Activity,
	}
}

func TestCompareEstimateDetectsTampering(t *testing.T) {
	c, e := c17Estimator(t)
	m := e.EvalModule(ids(t, c, "g1", "g3", "g5"))
	if vs := CompareEstimate(e, 0, m); len(vs) != 0 {
		t.Fatalf("fresh estimate flagged: %v", vs)
	}
	tampered := copyOf(m)
	tampered.Rs *= 1.5 // breaks Rs·îDD,max = r* and the recompute match
	vs := CompareEstimate(e, 0, tampered)
	var gotRail, gotStale bool
	for _, v := range vs {
		switch v.Constraint {
		case ConstraintRailSizing:
			gotRail = true
		case ConstraintStaleEstimate:
			gotStale = true
		}
	}
	if !gotRail || !gotStale {
		t.Errorf("tampered Rs: rail=%v stale=%v, want both; got %v", gotRail, gotStale, vs)
	}

	// A stale integer term — S(M) or one n(t) entry off by one — leaves
	// every float term intact, so only the exact comparison catches it.
	tampered = copyOf(m)
	tampered.Separation++
	wantStale(t, "S(M)", CompareEstimate(e, 0, tampered))
	tampered = copyOf(m)
	e.Delays(tampered) // built from the true n(t), so only n(t) goes stale
	tampered.Activity = append([]int(nil), m.Activity...)
	tampered.Activity[len(tampered.Activity)-1]++
	wantStale(t, "n(t)", CompareEstimate(e, 0, tampered))
	tampered.Activity = tampered.Activity[:len(tampered.Activity)-1]
	wantStale(t, "short n(t)", CompareEstimate(e, 0, tampered))

	// So does one degraded gate delay off by one ulp, which would make the
	// incremental D_BIC sweep diverge from a full one. The tamper goes
	// through the accessor the sweeps read: it edits the vector Delays
	// built and cached in the module.
	tampered = e.EvalModule(m.Gates)
	delay := e.Delays(tampered)
	delay[1] = math.Nextafter(delay[1], math.Inf(1))
	wantStale(t, "degraded delay", CompareEstimate(e, 0, tampered))

	// A D_BIC one ulp off a full sweep over fresh estimates is stale too.
	p, err := partition.New(e, [][]int{
		ids(t, c, "g1", "g3", "g5"),
		ids(t, c, "g2", "g4", "g6"),
	}, partition.PaperWeights(), partition.DefaultConstraints())
	if err != nil {
		t.Fatal(err)
	}
	moduleOf := make([]int, c.NumGates())
	for g := range moduleOf {
		moduleOf[g] = p.ModuleOf(g)
	}
	fresh := []*estimate.Module{e.EvalModule(p.AppendModuleGates(nil, 0)), e.EvalModule(p.AppendModuleGates(nil, 1))}
	dBIC := p.Costs().DBIc
	if vs := compareDBIc(e, moduleOf, fresh, dBIC); len(vs) != 0 {
		t.Fatalf("incremental D_BIC flagged: %v", vs)
	}
	wantStale(t, "D_BIC", compareDBIc(e, moduleOf, fresh, math.Nextafter(dBIC, 0)))
}

// wantStale asserts that vs is exactly one stale-estimate violation.
func wantStale(t *testing.T, what string, vs []Violation) {
	t.Helper()
	if len(vs) != 1 || vs[0].Constraint != ConstraintStaleEstimate {
		t.Errorf("tampered %s: got %v, want one %s violation", what, vs, ConstraintStaleEstimate)
	}
}

func TestVerifyPartitionAuditsLiveOptimizerState(t *testing.T) {
	c, e := c17Estimator(t)
	p, err := partition.New(e, [][]int{
		ids(t, c, "g1", "g3", "g5"),
		ids(t, c, "g2", "g4", "g6"),
	}, partition.PaperWeights(), partition.DefaultConstraints())
	if err != nil {
		t.Fatal(err)
	}
	if r := VerifyPartition(p, StructureOnly()); !r.OK() {
		t.Fatalf("fresh partition rejected:\n%s", r)
	}
	// Exercise the incremental-update path: move a gate and re-audit.
	g2 := ids(t, c, "g2")[0]
	if _, err := p.MoveGates([]int{g2}, 1, 0); err != nil {
		t.Fatal(err)
	}
	if r := VerifyPartition(p, StructureOnly()); !r.OK() {
		t.Fatalf("partition after MoveGates rejected:\n%s", r)
	}
	// Feasibility-limit verification must agree with the partition's own
	// feasibility predicate.
	lim := Feasibility(p.Cons.MinDiscriminability)
	if got := VerifyPartition(p, lim).OK(); got != p.Feasible() {
		t.Errorf("partcheck feasibility %v != partition.Feasible() %v", got, p.Feasible())
	}
}

// TestVerifyPartitionEvaluatesEachModuleOnce pins the audit's cost: one
// fresh evaluation per module serves the bounds, the cache audit and the
// D_BIC sweep, under either limit.
func TestVerifyPartitionEvaluatesEachModuleOnce(t *testing.T) {
	c, e := c17Estimator(t)
	o := obs.New("partcheck", nil, nil)
	e = e.ForRun(o, nil)
	p, err := partition.New(e, [][]int{
		ids(t, c, "g1", "g3", "g5"),
		ids(t, c, "g2", "g4", "g6"),
	}, partition.PaperWeights(), partition.DefaultConstraints())
	if err != nil {
		t.Fatal(err)
	}
	for mi := 0; mi < p.NumModules(); mi++ {
		p.ModuleEstimate(mi) // warm the cache: only the audit's own evaluations count
	}
	calls := o.Counter(estimate.MetricEvalModuleCalls)
	for _, lim := range []Limits{StructureOnly(), Feasibility(p.Cons.MinDiscriminability)} {
		before := calls.Value()
		VerifyPartition(p, lim)
		if got, want := calls.Value()-before, uint64(p.NumModules()); got != want {
			t.Errorf("VerifyPartition(%+v) made %d EvalModule calls, want %d (one per module)", lim, got, want)
		}
	}
}
