package experiments

import (
	"context"
	"errors"
	"strings"
	"testing"

	"iddqsyn/internal/bic"
	"iddqsyn/internal/techmap"
)

func TestOptimizerComparison(t *testing.T) {
	if testing.Short() {
		t.Skip("optimizer comparison in short mode")
	}
	prm := fastEvolution()
	prm.Mu = 8
	prm.Lambda = 4
	prm.Chi = 2
	prm.MaxGenerations = 150
	prm.StallGenerations = 150
	rows, err := OptimizerComparison(context.Background(), "c432", 8, prm)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]OptimizerRow{}
	for _, r := range rows {
		byName[r.Algorithm] = r
		if r.FinalCost <= 0 || r.Modules < 1 {
			t.Errorf("%s: degenerate row %+v", r.Algorithm, r)
		}
		if !r.Feasible {
			t.Errorf("%s: infeasible result", r.Algorithm)
		}
	}
	// All three optimizers descend the same landscape; none should be
	// wildly off the best (each must improve far beyond the start, and
	// the evolution strategy must stay within 2x of the winner — the
	// precise ranking at equal budgets is an empirical result recorded
	// in EXPERIMENTS.md, not an invariant).
	best := rows[0].FinalCost
	for _, r := range rows {
		if r.FinalCost < best {
			best = r.FinalCost
		}
	}
	if byName["evolution"].FinalCost > 2*best {
		t.Errorf("evolution %.6g more than 2x the best optimizer %.6g",
			byName["evolution"].FinalCost, best)
	}
	out := FormatOptimizers(rows)
	if !strings.Contains(out, "evolution") || !strings.Contains(out, "annealing") {
		t.Errorf("format:\n%s", out)
	}
	t.Logf("\n%s", out)
}

// The drivers that build their own start population must still honour an
// already-cancelled context: the start builder itself takes none, so each
// driver checks once before building.
func TestStartPopulationDriversHonourCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := OptimizerComparison(ctx, "c432", 8, fastEvolution()); !errors.Is(err, context.Canceled) {
		t.Errorf("OptimizerComparison under a cancelled context: err = %v, want context.Canceled", err)
	}
	if _, err := C17Trace(ctx, 1); !errors.Is(err, context.Canceled) {
		t.Errorf("C17Trace under a cancelled context: err = %v, want context.Canceled", err)
	}
}

func TestSensorVariantsTable(t *testing.T) {
	if testing.Short() {
		t.Skip("sensor variants in short mode")
	}
	rows, err := SensorVariants(context.Background(), "c432", fastEvolution())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	suitable := map[bic.Technology]bool{}
	for _, r := range rows {
		suitable[r.Technology] = r.Suitable
		if r.Area <= 0 {
			t.Errorf("%v: non-positive area", r.Technology)
		}
	}
	// The paper's design point: bypass-MOS (and the proportional sensor)
	// meet the stringent limit, junction drops do not.
	if !suitable[bic.BypassMOS] || !suitable[bic.Proportional] {
		t.Error("regulated sensors must be suitable at r* = 200 mV")
	}
	if suitable[bic.PNJunction] || suitable[bic.Bipolar] {
		t.Error("junction sensors must violate r* = 200 mV")
	}
	t.Logf("\n%s", FormatVariants(rows))
}

func TestTechmapStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("techmap study in short mode")
	}
	chosen, rows, err := TechmapStudy(context.Background(), "c432", fastEvolution())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	costs := map[techmap.Style]float64{}
	for _, r := range rows {
		costs[r.Style] = r.Cost
		if r.Cost <= 0 || r.Gates <= 0 {
			t.Errorf("%v: degenerate row", r.Style)
		}
	}
	// The mapper's trial ranking should agree with the evolved outcome
	// to within noise: the chosen style must not be the worst of the
	// three after full evolution.
	worst := rows[0].Style
	for _, r := range rows {
		if costs[r.Style] > costs[worst] {
			worst = r.Style
		}
	}
	if chosen == worst && costs[chosen] > 1.05*minCost(costs) {
		t.Errorf("mapper chose %v, the worst evolved candidate (%v)", chosen, costs)
	}
	t.Logf("mapper chose %v; evolved costs %v", chosen, costs)
}

func minCost(m map[techmap.Style]float64) float64 {
	first := true
	var min float64
	for _, v := range m {
		if first || v < min {
			min = v
			first = false
		}
	}
	return min
}

func TestScheduleStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("schedule study in short mode")
	}
	rows, err := ScheduleStudy(context.Background(), "c432", fastEvolution())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	byStrat := map[bic.Strategy]ScheduleRow{}
	for _, r := range rows {
		byStrat[r.Strategy] = r
	}
	if byStrat[bic.ReadSerial].SensorArea > byStrat[bic.ReadParallel].SensorArea {
		t.Error("serial readout must not cost more area than parallel")
	}
	if byStrat[bic.ReadParallel].TotalTime > byStrat[bic.ReadSerial].TotalTime {
		t.Error("parallel readout must not be slower than serial")
	}
	t.Logf("\n%s", FormatSchedules(rows))
}

func TestDeltaStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("delta study in short mode")
	}
	rows, err := DeltaStudy(context.Background(), "c432", fastEvolution(), []float64{0.3, 2.0})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	low, high := rows[0], rows[1]
	// At era-typical spread both methods are clean.
	if low.FixedOverkill > 0.02 || low.DeltaOverkill > 0.02 {
		t.Errorf("σ=0.3 overkill: fixed %.3f delta %.3f", low.FixedOverkill, low.DeltaOverkill)
	}
	// At wide spread, the fixed threshold overkills (the leaky-good-die
	// tail crosses 1 µA) while signature analysis stays clean — the
	// robustness argument for delta-IDDQ.
	if high.FixedOverkill < 0.03 {
		t.Errorf("σ=2.0 fixed overkill %.3f should be substantial", high.FixedOverkill)
	}
	if high.DeltaOverkill > high.FixedOverkill/2 {
		t.Errorf("σ=2.0 delta overkill %.3f should undercut fixed %.3f",
			high.DeltaOverkill, high.FixedOverkill)
	}
	// Escape floors: both bounded by the ATPG excitation coverage, and
	// the delta detector must not be wildly worse than fixed.
	if high.DeltaEscape > low.DeltaEscape+0.1 {
		t.Errorf("delta escape degraded with spread: %.3f -> %.3f", low.DeltaEscape, high.DeltaEscape)
	}
	t.Logf("\n%s", FormatDelta(rows))
}
