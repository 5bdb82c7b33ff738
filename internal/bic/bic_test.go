package bic

import (
	"math/rand"
	"strings"
	"testing"

	"iddqsyn/internal/atpg"
	"iddqsyn/internal/celllib"
	"iddqsyn/internal/circuits"
	"iddqsyn/internal/estimate"
	"iddqsyn/internal/faults"
)

func c17Fixture(t *testing.T) (*celllib.Annotated, *estimate.Estimator) {
	t.Helper()
	a, err := celllib.Annotate(circuits.C17(), celllib.Default())
	if err != nil {
		t.Fatal(err)
	}
	return a, estimate.New(a, estimate.DefaultParams())
}

// twoModules returns the paper's optimum C17 partition {(1,3,5),(2,4,6)}.
func twoModules(t *testing.T, a *celllib.Annotated) [][]int {
	t.Helper()
	var m1, m2 []int
	for _, name := range []string{"g1", "g3", "g5"} {
		g, _ := a.Circuit.GateByName(name)
		m1 = append(m1, g.ID)
	}
	for _, name := range []string{"g2", "g4", "g6"} {
		g, _ := a.Circuit.GateByName(name)
		m2 = append(m2, g.ID)
	}
	return [][]int{m1, m2}
}

// evaluated returns the module estimates of groups, as NewChip takes them.
func evaluated(e *estimate.Estimator, groups [][]int) []*estimate.Module {
	mods := make([]*estimate.Module, len(groups))
	for mi, g := range groups {
		mods[mi] = e.EvalModule(g)
	}
	return mods
}

// unsized wraps groups as modules without estimates, for the partitions
// NewChip must reject before it sizes a sensor.
func unsized(groups [][]int) []*estimate.Module {
	mods := make([]*estimate.Module, len(groups))
	for mi, g := range groups {
		mods[mi] = &estimate.Module{Gates: g}
	}
	return mods
}

func TestSizeAndEvaluate(t *testing.T) {
	a, e := c17Fixture(t)
	m := e.EvalModule(a.Circuit.LogicGates())
	s := Size(0, m, e.P)
	if s.ROn != m.Rs || s.Area != m.SensorArea || s.Tau != m.Tau {
		t.Error("Size must copy the module estimates")
	}
	if !s.Evaluate(s.Threshold / 2) {
		t.Error("half-threshold current must PASS")
	}
	if s.Evaluate(s.Threshold * 2) {
		t.Error("double-threshold current must FAIL")
	}
	if s.Evaluate(s.Threshold) {
		t.Error("at-threshold current must FAIL (detect at IDDQ >= th)")
	}
	if !strings.Contains(s.String(), "sensor[M0]") {
		t.Errorf("String() = %q", s.String())
	}
}

func TestNewChipValidation(t *testing.T) {
	a, e := c17Fixture(t)
	gates := a.Circuit.LogicGates()

	if _, err := NewChip(a, unsized([][]int{gates[:3]}), e.P); err == nil {
		t.Error("want error for partition not covering all gates")
	}
	if _, err := NewChip(a, unsized([][]int{gates, gates[:1]}), e.P); err == nil {
		t.Error("want error for overlapping modules")
	}
	if _, err := NewChip(a, unsized([][]int{gates, {}}), e.P); err == nil {
		t.Error("want error for empty module")
	}
	if _, err := NewChip(a, unsized([][]int{append([]int{a.Circuit.Inputs[0]}, gates...)}), e.P); err == nil {
		t.Error("want error for module containing a primary input")
	}
	if _, err := NewChip(a, unsized([][]int{append([]int{999}, gates...)}), e.P); err == nil {
		t.Error("want error for out-of-range gate")
	}
	ch, err := NewChip(a, evaluated(e, twoModules(t, a)), e.P)
	if err != nil {
		t.Fatalf("valid partition rejected: %v", err)
	}
	if got := len(ch.Sensors); got != 2 {
		t.Errorf("sensors = %d, want 2", got)
	}
	g1, _ := a.Circuit.GateByName("g1")
	g2, _ := a.Circuit.GateByName("g2")
	if ch.ModuleOf(g1.ID) != 0 || ch.ModuleOf(g2.ID) != 1 {
		t.Error("ModuleOf mismatch")
	}
	if ch.ModuleOf(a.Circuit.Inputs[0]) != -1 {
		t.Error("inputs have no module")
	}
}

func TestFaultFreeVectorsPass(t *testing.T) {
	a, e := c17Fixture(t)
	ch, err := NewChip(a, evaluated(e, twoModules(t, a)), e.P)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 32; trial++ {
		vec := make([]bool, len(a.Circuit.Inputs))
		for i := range vec {
			vec[i] = rng.Intn(2) == 1
		}
		readings, err := ch.ApplyVector(vec, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range readings {
			if !r.Pass {
				t.Fatalf("fault-free module %d FAILs with IDDQ %g (threshold %g)",
					r.Module, r.IDDQ, ch.Sensors[r.Module].Threshold)
			}
			if r.IDDQ <= 0 {
				t.Fatal("fault-free IDDQ must still be positive leakage")
			}
		}
	}
}

func TestInjectedBridgeDetected(t *testing.T) {
	a, e := c17Fixture(t)
	ch, err := NewChip(a, evaluated(e, twoModules(t, a)), e.P)
	if err != nil {
		t.Fatal(err)
	}
	g1, _ := a.Circuit.GateByName("g1")
	g2, _ := a.Circuit.GateByName("g2")
	bridge := faults.Fault{Kind: faults.Bridge, A: g1.ID, B: g2.ID, Current: 1e-3}

	// I1=1,I3=1,I4=0: g1=0, g2=1 -> excited, observed at g1 (module 0).
	readings, err := ch.ApplyVector([]bool{true, false, true, false, false}, []faults.Fault{bridge})
	if err != nil {
		t.Fatal(err)
	}
	if readings[0].Pass {
		t.Error("module 0 must FAIL with the bridge excited")
	}
	if !readings[1].Pass {
		t.Error("module 1 must still PASS — the defect current flows in module 0's ground path")
	}

	// Same values on both nets: not excited, all PASS.
	readings, err = ch.ApplyVector([]bool{true, false, false, false, false}, []faults.Fault{bridge})
	if err != nil {
		t.Fatal(err)
	}
	if !readings[0].Pass || !readings[1].Pass {
		t.Error("unexcited bridge must not fail any module")
	}
}

func TestRunTestEndToEnd(t *testing.T) {
	// Full flow: ATPG test set detects an injected defect through the
	// sized sensors; the fault-free chip passes the whole set.
	a, e := c17Fixture(t)
	ch, err := NewChip(a, evaluated(e, twoModules(t, a)), e.P)
	if err != nil {
		t.Fatal(err)
	}
	cfg := faults.DefaultConfig()
	list := faults.Universe(a.Circuit, cfg, rand.New(rand.NewSource(1)))
	opt := atpg.DefaultOptions()
	opt.TargetCoverage = 1.0
	gen, err := atpg.Generate(a.Circuit, list, opt)
	if err != nil {
		t.Fatal(err)
	}
	detected, _, _, err := ch.RunTest(gen.Vectors, nil)
	if err != nil {
		t.Fatal(err)
	}
	if detected {
		t.Fatal("fault-free chip failed the test set")
	}
	// Every fault the ATPG claims detected must fail on silicon too.
	misses := 0
	for _, d := range gen.Detections {
		hit, _, module, err := ch.RunTest(gen.Vectors, []faults.Fault{list[d.Fault]})
		if err != nil {
			t.Fatal(err)
		}
		if !hit {
			misses++
			continue
		}
		if want := ch.ModuleOf(d.Observer); module != want {
			t.Errorf("fault %v detected in module %d, expected %d", &list[d.Fault], module, want)
		}
	}
	if misses > 0 {
		t.Errorf("%d of %d detected faults missed on the chip model", misses, len(gen.Detections))
	}
}

func TestTotalSensorArea(t *testing.T) {
	a, e := c17Fixture(t)
	ch, err := NewChip(a, evaluated(e, twoModules(t, a)), e.P)
	if err != nil {
		t.Fatal(err)
	}
	want := ch.Sensors[0].Area + ch.Sensors[1].Area
	if got := ch.TotalSensorArea(); got != want {
		t.Errorf("TotalSensorArea = %g, want %g", got, want)
	}
	if want <= 0 {
		t.Error("sensor area must be positive")
	}
}

func TestApplyVectorBadWidth(t *testing.T) {
	a, e := c17Fixture(t)
	ch, err := NewChip(a, evaluated(e, twoModules(t, a)), e.P)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ch.ApplyVector(make([]bool, 9), nil); err == nil {
		t.Error("want error for wrong vector width")
	}
}
