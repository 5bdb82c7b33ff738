package estimate

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"iddqsyn/internal/celllib"
	"iddqsyn/internal/chaos"
	"iddqsyn/internal/circuit"
	"iddqsyn/internal/circuits"
	"iddqsyn/internal/electrical"
	"iddqsyn/internal/obs"
)

func annotatedC17(t *testing.T) *celllib.Annotated {
	t.Helper()
	a, err := celllib.Annotate(circuits.C17(), celllib.Default())
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func gid(t *testing.T, c *circuit.Circuit, name string) int {
	t.Helper()
	g, ok := c.GateByName(name)
	if !ok {
		t.Fatalf("gate %s missing", name)
	}
	return g.ID
}

func TestTransitionTimesC17(t *testing.T) {
	c := circuits.C17()
	ts := TransitionTimes(c)
	// Inputs transition only at t=0.
	for _, id := range c.Inputs {
		if got := ts.Times(id); len(got) != 1 || got[0] != 0 {
			t.Errorf("input %s times = %v, want [0]", c.Gates[id].Name, got)
		}
	}
	// g1, g2 at t=1; g3, g4 at t=2; g5 at {2,3}; g6 at {2,3}.
	want := map[string][]int{
		"g1": {1}, "g2": {1}, "g3": {2}, "g4": {2}, "g5": {2, 3}, "g6": {3},
	}
	// g5 = NAND(g1, g3): paths I1->g1->g5 (len 2) and I*->g2->g3->g5 (3),
	// also I2->g3->g5 (2). g6 = NAND(g3, g4): I2->g3->g6 (2)? g3 inputs:
	// I2 (len 1) and g2 (len 2), so T(g3) = {2, 3}? No: T(g3) =
	// (T(I2)+1) ∪ (T(g2)+1) = {1} ∪ {2} = {1,2}.
	_ = want
	g3 := gid(t, c, "g3")
	if got := ts.Times(g3); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("T(g3) = %v, want [1 2]", got)
	}
	g5 := gid(t, c, "g5")
	// T(g5) = (T(g1)+1) ∪ (T(g3)+1) = {2} ∪ {2,3} = {2,3}.
	if got := ts.Times(g5); len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Errorf("T(g5) = %v, want [2 3]", got)
	}
	if ts.NumTimes(g5) != 2 {
		t.Errorf("NumTimes(g5) = %d, want 2", ts.NumTimes(g5))
	}
	if !ts.Has(g5, 3) || ts.Has(g5, 1) || ts.Has(g5, -1) || ts.Has(g5, 99) {
		t.Error("Has() misbehaves")
	}
}

func TestTransitionTimesMatchLevelsUpperBound(t *testing.T) {
	// Every gate's latest transition time equals its level (longest path),
	// and its earliest is at least 1 for logic gates.
	c := circuits.MustISCAS85Like("c432")
	ts := TransitionTimes(c)
	lv := c.Levels()
	for _, g := range c.LogicGates() {
		times := ts.Times(g)
		if len(times) == 0 {
			t.Fatalf("gate %d has no transition times", g)
		}
		if times[len(times)-1] != lv[g] {
			t.Errorf("gate %d latest time %d != level %d", g, times[len(times)-1], lv[g])
		}
		if times[0] < 1 {
			t.Errorf("gate %d has transition time %d < 1", g, times[0])
		}
	}
}

func TestActivityProfileC17(t *testing.T) {
	c := circuits.C17()
	ts := TransitionTimes(c)
	gates := c.LogicGates()
	prof := ts.ActivityProfile(gates)
	// T(g1)=T(g2)={1}; T(g3)={1,2} (I2 path and g2 path);
	// T(g4)={1,2} (I5 path and g2 path); T(g5)=T(g6)={2,3}.
	// n(1): g1,g2,g3,g4 = 4. n(2): g3,g4,g5,g6 = 4. n(3): g5,g6 = 2.
	want := []int{0, 4, 4, 2}
	if len(prof) != len(want) {
		t.Fatalf("profile length %d, want %d", len(prof), len(want))
	}
	for i := range want {
		if prof[i] != want[i] {
			t.Errorf("n(%d) = %d, want %d (profile %v)", i, prof[i], want[i], prof)
		}
	}
}

func TestMaxCurrentC17(t *testing.T) {
	a := annotatedC17(t)
	ts := TransitionTimes(a.Circuit)
	gates := a.Circuit.LogicGates()
	// All gates are NAND2 with equal peak: max is at t=2 with 4 gates.
	peak := a.Peak[gates[0]]
	got := ts.MaxCurrent(a, gates)
	if !approx(got, 4*peak, 1e-12) {
		t.Errorf("MaxCurrent = %g, want %g (4 NAND2 peaks)", got, 4*peak)
	}
	// A single gate's module has its own peak.
	if got := ts.MaxCurrent(a, gates[:1]); !approx(got, peak, 1e-12) {
		t.Errorf("single-gate MaxCurrent = %g, want %g", got, peak)
	}
	// Empty group draws nothing.
	if got := ts.MaxCurrent(a, nil); got != 0 {
		t.Errorf("empty MaxCurrent = %g", got)
	}
}

// Property: îDD,max of a union of groups never exceeds the sum and never
// falls below the max of the parts (subadditivity of the estimator).
func TestMaxCurrentSubadditive(t *testing.T) {
	c := circuits.MustISCAS85Like("c432")
	a, err := celllib.Annotate(c, celllib.Default())
	if err != nil {
		t.Fatal(err)
	}
	ts := TransitionTimes(c)
	logic := c.LogicGates()
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var ga, gb []int
		for _, g := range logic {
			switch rng.Intn(3) {
			case 0:
				ga = append(ga, g)
			case 1:
				gb = append(gb, g)
			}
		}
		union := append(append([]int{}, ga...), gb...)
		iu := ts.MaxCurrent(a, union)
		ia := ts.MaxCurrent(a, ga)
		ib := ts.MaxCurrent(a, gb)
		max := ia
		if ib > max {
			max = ib
		}
		return iu <= ia+ib+1e-15 && iu >= max-1e-15
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestEvalModule(t *testing.T) {
	a := annotatedC17(t)
	e := New(a, DefaultParams())
	gates := a.Circuit.LogicGates()
	m := e.EvalModule(gates)
	if m.IDDMax <= 0 {
		t.Fatal("IDDMax must be positive")
	}
	if !approx(m.Rs, e.P.RailLimit/m.IDDMax, 1e-12) {
		t.Errorf("Rs = %g, want r*/iDDmax = %g", m.Rs, e.P.RailLimit/m.IDDMax)
	}
	if m.Cs <= e.P.CsSensor {
		t.Error("Cs must include the gate parasitics")
	}
	if !approx(m.Tau, m.Rs*m.Cs, 1e-20) {
		t.Error("Tau != Rs*Cs")
	}
	wantArea, err := electrical.SensorArea(e.P.AreaA0, e.P.AreaA1, m.Rs)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(m.SensorArea, wantArea, 1e-9) {
		t.Errorf("SensorArea = %g, want %g", m.SensorArea, wantArea)
	}
	if m.LeakND != a.TotalLeakageMax(gates) {
		t.Error("LeakND mismatch")
	}
	if m.Settle <= 0 {
		t.Error("settle time must be positive for a module with real current")
	}
	if m.Separation <= 0 {
		t.Error("separation of a 6-gate module must be positive")
	}
	if len(m.Activity) != e.TS.Depth()+1 {
		t.Error("activity profile length mismatch")
	}
}

// The set-bit walk must list exactly the members, in order, across word
// boundaries.
func TestBitsetAppendMembers(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		capacity := 1 + rng.Intn(200)
		b := newBitset(capacity)
		var want []int32
		for i := 0; i < capacity; i++ {
			if rng.Intn(4) == 0 || i == 63 || i == 64 {
				b.set(i)
				want = append(want, int32(i))
			}
		}
		got := b.appendMembers([]int32{-7})
		if len(got) != len(want)+1 || got[0] != -7 {
			t.Fatalf("capacity %d: appended %v after -7, want %v", capacity, got, want)
		}
		for i := range want {
			if got[i+1] != want[i] {
				t.Fatalf("capacity %d: appended %v after -7, want %v", capacity, got, want)
			}
		}
	}
	if got := newBitset(10).appendMembers(nil); len(got) != 0 {
		t.Errorf("empty set: members %v", got)
	}
}

// FinishModule fed exact counts — including counts reached by AddActivity
// deltas — must reproduce EvalModule bit for bit.
func TestFinishModuleMatchesEvalModule(t *testing.T) {
	a, err := celllib.Annotate(circuits.MustISCAS85Like("c432"), celllib.Default())
	if err != nil {
		t.Fatal(err)
	}
	e := New(a, DefaultParams())
	logic := a.Circuit.LogicGates()
	gates := logic[:len(logic)/3]
	sep, act := e.ModuleCounts(gates)
	// Walk the profile of a larger group down to this one by deltas.
	_, delta := e.ModuleCounts(logic[:len(logic)/2])
	for _, g := range logic[len(logic)/3 : len(logic)/2] {
		e.TS.AddActivity(delta, g, -1)
	}
	for tm := range act {
		if delta[tm] != act[tm] {
			t.Fatalf("n(%d) by deltas = %d, counted %d", tm, delta[tm], act[tm])
		}
	}
	got, want := e.FinishModule(gates, sep, delta), e.EvalModule(gates)
	if got.Separation != want.Separation || got.IDDMax != want.IDDMax || got.Rs != want.Rs ||
		got.Cs != want.Cs || got.LeakND != want.LeakND || got.Settle != want.Settle ||
		got.SensorArea != want.SensorArea || !slices.Equal(got.Delay, want.Delay) {
		t.Errorf("FinishModule %+v, EvalModule %+v", got, want)
	}
}

// referenceBICDelay is the §3.2 longest path written out directly: every
// gate's delay is degraded by δ(g, t) of its module at the gate's level.
func referenceBICDelay(e *Estimator, moduleOf []int, mods []*Module) float64 {
	c := e.A.Circuit
	arrival := make([]float64, c.NumGates())
	var worst float64
	for _, id := range c.TopoOrder() {
		g := &c.Gates[id]
		if g.Type == circuit.Input {
			continue
		}
		var in float64
		for _, f := range g.Fanin {
			in = math.Max(in, arrival[f])
		}
		d := e.A.Delay[id]
		m := mods[moduleOf[id]]
		n := max(1, m.Activity[c.Levels()[id]])
		deg, err := electrical.DelayDegradation(n, m.Rs, e.A.Rg[id], e.A.Delay[id], m.Cs)
		if err != nil {
			panic(err)
		}
		d *= deg
		arrival[id] = in + d
		worst = math.Max(worst, arrival[id])
	}
	return worst
}

// fullSweep returns the degraded delay and the arrival time at every
// sweep position under mods, modules that cover every logic gate, from a
// scatter of every module's delays and a sweep over every position.
func fullSweep(e *Estimator, mods []*Module) (delay, arrival []float64) {
	n := e.A.Circuit.NumGates()
	delay = make([]float64, n)
	for _, m := range mods {
		for i, g := range m.Gates {
			delay[e.dag.pos[g]] = m.Delay[i]
		}
	}
	arrival = make([]float64, n)
	e.dag.sweep(delay, arrival, 0)
	return delay, arrival
}

// updateChecked runs UpdateBICDelay on pooled scratch and fails t unless
// the scratch's frontier is all zero afterwards and the delays and
// arrival times at every position equal a full scatter's and sweep's
// under mods bit for bit. It returns D_BIC.
func updateChecked(t *testing.T, e *Estimator, arrival, delay []float64, changed, mods []*Module, what string) float64 {
	t.Helper()
	sc := e.getScratch()
	got := e.updateBICDelay(sc.frontier, arrival, delay, changed)
	for w, word := range sc.frontier {
		if word != 0 {
			t.Fatalf("%s: frontier word %d = %#x after the sweep, want 0", what, w, word)
		}
	}
	e.scratch.Put(sc)
	wantDelay, wantArrival := fullSweep(e, mods)
	for i := range wantArrival {
		if math.Float64bits(delay[i]) != math.Float64bits(wantDelay[i]) {
			t.Fatalf("%s: delay at position %d = %v, full scatter %v", what, i, delay[i], wantDelay[i])
		}
		if math.Float64bits(arrival[i]) != math.Float64bits(wantArrival[i]) {
			t.Fatalf("%s: arrival at position %d = %v, full sweep %v", what, i, arrival[i], wantArrival[i])
		}
	}
	if w := e.dag.worst(wantArrival); math.Float64bits(got) != math.Float64bits(w) {
		t.Fatalf("%s: D_BIC = %v, full sweep %v", what, got, w)
	}
	return got
}

// The incremental D_BIC update must equal both a full sweep and the
// direct §3.2 computation bit for bit, leave the delay and arrival time
// at every position equal to a full sweep's, and recompute fewer gates
// than the circuit has when the changed modules are small. Its first
// call, on zeroed vectors with every module changed, recomputes every
// position from the first logic gate's on.
func TestUpdateBICDelayMatchesFullSweep(t *testing.T) {
	a, err := celllib.Annotate(circuits.MustISCAS85Like("c432"), celllib.Default())
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New("test", nil, nil)
	e := New(a, DefaultParams()).ForRun(o, nil)
	c := a.Circuit
	logic := c.LogicGates()
	var groups [][]int
	moduleOf := make([]int, c.NumGates())
	firstLogic := c.NumGates()
	for i := 0; i < len(logic); i += 8 {
		grp := logic[i:min(i+8, len(logic))]
		for _, g := range grp {
			moduleOf[g] = len(groups)
			firstLogic = min(firstLogic, int(e.dag.pos[g]))
		}
		groups = append(groups, grp)
	}
	mods := make([]*Module, len(groups))
	for mi, grp := range groups {
		mods[mi] = e.EvalModule(grp)
	}
	arrival, delay := make([]float64, c.NumGates()), make([]float64, c.NumGates())
	first := updateChecked(t, e, arrival, delay, mods, mods, "first call")
	if want := referenceBICDelay(e, moduleOf, mods); math.Float64bits(first) != math.Float64bits(want) {
		t.Fatalf("full sweep D_BIC = %v, direct computation %v", first, want)
	}
	sweeps, gates := o.Counter(MetricBICDelaySweeps), o.Counter(MetricBICDelayGates)
	if want := uint64(c.NumGates() - firstLogic); sweeps.Value() != 1 || gates.Value() != want {
		t.Fatalf("first call counted %d sweeps over %d gates, want 1 over %d", sweeps.Value(), gates.Value(), want)
	}
	rng := rand.New(rand.NewSource(3))
	for step := 0; step < 20; step++ {
		// Move the last gate of one group to the end of the next one.
		from := rng.Intn(len(groups) - 1)
		if len(groups[from]) < 2 {
			continue
		}
		g := groups[from][len(groups[from])-1]
		groups[from] = slices.Clone(groups[from][:len(groups[from])-1])
		groups[from+1] = append([]int{g}, groups[from+1]...)
		slices.Sort(groups[from+1])
		moduleOf[g] = from + 1
		mods[from], mods[from+1] = e.EvalModule(groups[from]), e.EvalModule(groups[from+1])
		before := gates.Value()
		got := updateChecked(t, e, arrival, delay, []*Module{mods[from+1], mods[from]}, mods, fmt.Sprintf("step %d", step))
		recomputed := gates.Value() - before
		if want := e.BICDelay(moduleOf, mods); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("step %d: incremental D_BIC = %v, full sweep %v", step, got, want)
		}
		if want := referenceBICDelay(e, moduleOf, mods); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("step %d: incremental D_BIC = %v, direct computation %v", step, got, want)
		}
		if recomputed >= uint64(c.NumLogicGates()) {
			t.Errorf("step %d: recomputed %d gates, the circuit has %d", step, recomputed, c.NumLogicGates())
		}
	}
}

// With one module per gate every update has a single seed, the sparsest
// case: the frontier sweep starts from one position, often mid-word, and
// only the delay at that position may change. A delay written to the
// wrong position, a frontier word skipped or a frontier bit left set
// shows at once: the delays must equal a full scatter's and the arrival
// times a full sweep's at every position, and the frontier must be all
// zero, after every call.
func TestUpdateBICDelaySingletonModules(t *testing.T) {
	a, err := celllib.Annotate(circuits.MustISCAS85Like("c432"), celllib.Default())
	if err != nil {
		t.Fatal(err)
	}
	e := New(a, DefaultParams())
	c := a.Circuit
	logic := c.LogicGates()
	mods := make([]*Module, len(logic))
	for i, g := range logic {
		mods[i] = e.EvalModule([]int{g})
	}
	arrival, delay := make([]float64, c.NumGates()), make([]float64, c.NumGates())
	updateChecked(t, e, arrival, delay, mods, mods, "first call")
	rng := rand.New(rand.NewSource(5))
	for step := 0; step < 50; step++ {
		k := rng.Intn(len(mods))
		m := *mods[k]
		m.Delay = []float64{m.Delay[0] * (1 + rng.Float64())}
		mods[k] = &m
		updateChecked(t, e, arrival, delay, []*Module{mods[k]}, mods, fmt.Sprintf("step %d", step))
	}
}

// D_BIC is the worst arrival over the fanout-free positions only. Every
// delay is non-negative, so that must equal the maximum over all
// positions bit for bit, for the nominal delays and for degraded ones.
func TestWorstArrivalOverSinksIsGlobalMax(t *testing.T) {
	names := append([]string{"c17"}, circuits.Names()...)
	for _, name := range names {
		c := circuits.C17()
		if name != "c17" {
			c = circuits.MustISCAS85Like(name)
		}
		a, err := celllib.Annotate(c, celllib.Default())
		if err != nil {
			t.Fatal(err)
		}
		e := New(a, DefaultParams())
		maxAll := func(arrival []float64) float64 {
			var worst float64
			for _, at := range arrival {
				worst = math.Max(worst, at)
			}
			return worst
		}
		nominal := make([]float64, c.NumGates())
		e.dag.sweep(e.dag.nominal, nominal, 0)
		if got, want := e.NominalDelay(), maxAll(nominal); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: nominal delay over sinks %v, over all positions %v", name, got, want)
		}
		logic := c.LogicGates()
		var mods []*Module
		for i := 0; i < len(logic); i += 8 {
			mods = append(mods, e.EvalModule(logic[i:min(i+8, len(logic))]))
		}
		arrival, delay := make([]float64, c.NumGates()), make([]float64, c.NumGates())
		got := updateChecked(t, e, arrival, delay, mods, mods, name)
		if want := maxAll(arrival); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: D_BIC over sinks %v, over all positions %v", name, got, want)
		}
	}
}

func TestEvalModuleEmpty(t *testing.T) {
	a := annotatedC17(t)
	e := New(a, DefaultParams())
	m := e.EvalModule(nil)
	if m.IDDMax != 0 || m.Separation != 0 {
		t.Error("empty module should have zero estimates")
	}
	if m.Discriminability(1e-6) < 1e17 {
		t.Error("empty module discriminates perfectly")
	}
}

func TestDiscriminability(t *testing.T) {
	m := &Module{LeakND: 1e-7}
	if got := m.Discriminability(1e-6); !approx(got, 10, 1e-9) {
		t.Errorf("d = %g, want 10", got)
	}
}

func TestSeparationModuleCliqueVsSpread(t *testing.T) {
	a := annotatedC17(t)
	e := New(a, DefaultParams())
	c := a.Circuit
	// Tight cluster: g2 and its direct fanouts g3, g4.
	tight := []int{gid(t, c, "g2"), gid(t, c, "g3"), gid(t, c, "g4")}
	// Spread: g1, g4, g6 — g1 and g4 are far apart.
	spread := []int{gid(t, c, "g1"), gid(t, c, "g4"), gid(t, c, "g6")}
	st := e.SeparationModule(tight)
	ss := e.SeparationModule(spread)
	if st >= ss {
		t.Errorf("separation: tight %d should beat spread %d", st, ss)
	}
	// Hand values: tight pairs (g2,g3)=1, (g2,g4)=1, (g3,g4)=2 -> 4.
	if st != 4 {
		t.Errorf("S(tight) = %d, want 4", st)
	}
	if e.SeparationModule(tight[:1]) != 0 {
		t.Error("single-gate module has zero separation")
	}
}

func TestSeparationCapRho(t *testing.T) {
	// Two gates in disconnected halves must be forced to ρ.
	b := circuit.NewBuilder("two")
	b.AddInput("a").AddInput("b")
	b.AddGate("x", circuit.Not, "a")
	b.AddGate("y", circuit.Not, "b")
	b.MarkOutput("x").MarkOutput("y")
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	a, err := celllib.Annotate(c, celllib.Default())
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	p.Rho = 7
	e := New(a, p)
	gates := c.LogicGates()
	if got := e.SeparationModule(gates); got != 7 {
		t.Errorf("disconnected pair separation = %d, want ρ = 7", got)
	}
}

func TestNominalDelayC17(t *testing.T) {
	a := annotatedC17(t)
	e := New(a, DefaultParams())
	// Longest path: 3 NAND2 stages; fanout loading makes gates differ, so
	// check against a direct computation.
	c := a.Circuit
	arrival := make([]float64, c.NumGates())
	var want float64
	for _, id := range c.TopoOrder() {
		g := &c.Gates[id]
		if g.Type == circuit.Input {
			continue
		}
		var in float64
		for _, f := range g.Fanin {
			if arrival[f] > in {
				in = arrival[f]
			}
		}
		arrival[id] = in + a.Delay[id]
		if arrival[id] > want {
			want = arrival[id]
		}
	}
	if !approx(e.NominalDelay(), want, 1e-15) {
		t.Errorf("NominalDelay = %g, want %g", e.NominalDelay(), want)
	}
}

func TestBICDelayExceedsNominal(t *testing.T) {
	a := annotatedC17(t)
	e := New(a, DefaultParams())
	c := a.Circuit
	gates := c.LogicGates()
	mods := []*Module{e.EvalModule(gates)}
	moduleOf := make([]int, c.NumGates())
	for _, g := range gates {
		moduleOf[g] = 0
	}
	dBIC := e.BICDelay(moduleOf, mods)
	if dBIC <= e.NominalDelay() {
		t.Errorf("D_BIC = %g must exceed D = %g", dBIC, e.NominalDelay())
	}
	ovh := e.DelayOverhead(dBIC)
	if ovh <= 0 || ovh > 1 {
		t.Errorf("delay overhead = %g, want small positive fraction", ovh)
	}
}

func TestFinerPartitionSmallerDegradation(t *testing.T) {
	// Splitting one module into two lowers each module's îDD,max, which
	// raises Rs (less sensor conductance needed)... but the activity per
	// module also halves. Verify at least that per-module currents drop.
	a := annotatedC17(t)
	e := New(a, DefaultParams())
	c := a.Circuit
	gates := c.LogicGates()
	whole := e.EvalModule(gates)
	left := e.EvalModule(gates[:3])
	right := e.EvalModule(gates[3:])
	if left.IDDMax >= whole.IDDMax && right.IDDMax >= whole.IDDMax {
		t.Error("splitting must reduce at least one module's current")
	}
	if left.Rs <= whole.Rs {
		t.Error("a smaller module affords a larger Rs")
	}
}

func TestTestTimeOverhead(t *testing.T) {
	a := annotatedC17(t)
	e := New(a, DefaultParams())
	gates := a.Circuit.LogicGates()
	mods := []*Module{e.EvalModule(gates)}
	moduleOf := make([]int, a.Circuit.NumGates())
	dBIC := e.BICDelay(moduleOf, mods)
	c4 := e.TestTimeOverhead(dBIC, mods[0].Settle)
	c2 := e.DelayOverhead(dBIC)
	if c4 <= c2 {
		t.Errorf("test-time overhead %g must exceed delay overhead %g (settling adds)", c4, c2)
	}
	// With no settling time the test-time overhead is the delay overhead.
	if got := e.TestTimeOverhead(dBIC, 0); math.Float64bits(got) != math.Float64bits(c2) {
		t.Errorf("test-time overhead without settling %g, delay overhead %g", got, c2)
	}
}

func approx(a, b, eps float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= eps
}

// evalPanics runs EvalModule and returns the recovered panic value (nil if
// none): the contract between the estimator's numeric guards and the
// optimizer worker pools that convert these panics into errors.
func evalPanics(e *Estimator, gates []int) (r any) {
	defer func() { r = recover() }()
	e.EvalModule(gates)
	return nil
}

// A chaos-poisoned estimate must never leave EvalModule as a number: the
// guards turn it into a panic whose value is an error wrapping both
// chaos-visible context and electrical.ErrNonFinite, so the worker pools
// can classify it after recovery.
func TestChaosPoisonedEstimatePanicsTyped(t *testing.T) {
	for _, site := range []string{chaos.SiteEstimateNaN, chaos.SiteEstimateInf} {
		t.Run(site, func(t *testing.T) {
			a := annotatedC17(t)
			sched, err := chaos.ParseSchedule("seed=1,after=1,sites=" + site)
			if err != nil {
				t.Fatal(err)
			}
			e := New(a, DefaultParams()).ForRun(nil, chaos.New(sched, nil))
			r := evalPanics(e, a.Circuit.LogicGates())
			if r == nil {
				t.Fatal("poisoned estimate did not panic")
			}
			perr, ok := r.(error)
			if !ok {
				t.Fatalf("panic value %v (%T) is not an error", r, r)
			}
			if !errors.Is(perr, electrical.ErrNonFinite) {
				t.Errorf("panic error %v does not wrap electrical.ErrNonFinite", perr)
			}
			// A second evaluation is clean: the schedule was one-shot.
			if r := evalPanics(e, a.Circuit.LogicGates()); r != nil {
				t.Errorf("one-shot schedule injected twice: %v", r)
			}
		})
	}
}
