package core

import (
	"context"
	"strings"
	"testing"

	"iddqsyn/internal/circuits"
	"iddqsyn/internal/estimate"
	"iddqsyn/internal/evolution"
	"iddqsyn/internal/obs"
	"iddqsyn/internal/partition"
)

func TestSynthesizeC17Evolution(t *testing.T) {
	res, err := SynthesizeContext(context.Background(), circuits.C17(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != MethodEvolution {
		t.Error("default method should be evolution")
	}
	if res.Partition == nil || res.Chip == nil || res.Evolution == nil {
		t.Fatal("incomplete result")
	}
	if err := res.Partition.Verify(); err != nil {
		t.Errorf("partition invariants: %v", err)
	}
	if !res.Partition.Feasible() {
		t.Error("result must be feasible")
	}
	if len(res.Chip.Sensors) != res.Partition.NumModules() {
		t.Error("one sensor per module")
	}
}

func TestSynthesizeStandard(t *testing.T) {
	res, err := SynthesizeContext(context.Background(), circuits.C17(), Options{Method: MethodStandard, ModuleSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evolution != nil {
		t.Error("standard method must not carry an evolution result")
	}
	if res.Partition.NumModules() != 2 {
		t.Errorf("modules = %d, want 2", res.Partition.NumModules())
	}
}

func TestSynthesizeStandardAtK(t *testing.T) {
	c := circuits.MustISCAS85Like("c432")
	res, err := SynthesizeContext(context.Background(), c, Options{Method: MethodStandard, Modules: 4})
	if err != nil {
		t.Fatal(err)
	}
	k := res.Partition.NumModules()
	if k < 4 || k > 6 {
		t.Errorf("modules = %d, want ≈4", k)
	}
}

func TestSynthesizeEvolutionBeatsStandardOnCost(t *testing.T) {
	// The headline claim, on a mid-size circuit: at comparable module
	// counts, the evolution result has lower weighted cost.
	c := circuits.MustISCAS85Like("c432")
	eprm := evolution.DefaultParams()
	eprm.MaxGenerations = 120
	eprm.StallGenerations = 30
	evo, err := SynthesizeContext(context.Background(), c, Options{Evolution: &eprm})
	if err != nil {
		t.Fatal(err)
	}
	std, err := SynthesizeContext(context.Background(), c, Options{Method: MethodStandard, Modules: evo.Partition.NumModules()})
	if err != nil {
		t.Fatal(err)
	}
	if evo.Partition.Cost() > std.Partition.Cost() {
		t.Errorf("evolution cost %.6g worse than standard %.6g",
			evo.Partition.Cost(), std.Partition.Cost())
	}
	t.Logf("c432: evolution C=%.6g (K=%d) vs standard C=%.6g (K=%d)",
		evo.Partition.Cost(), evo.Partition.NumModules(),
		std.Partition.Cost(), std.Partition.NumModules())
}

func TestSynthesizeCustomWeights(t *testing.T) {
	// Heavily weighting module count must not increase the number of
	// modules relative to the area-focused default.
	w := partition.PaperWeights()
	w.Modules = 1e7
	res, err := SynthesizeContext(context.Background(), circuits.C17(), Options{Weights: &w})
	if err != nil {
		t.Fatal(err)
	}
	if res.Partition.NumModules() != 1 {
		t.Errorf("with huge α5, K = %d, want 1", res.Partition.NumModules())
	}
}

func TestSynthesizeUnknownMethod(t *testing.T) {
	if _, err := SynthesizeContext(context.Background(), circuits.C17(), Options{Method: Method(9)}); err == nil {
		t.Error("want error for unknown method")
	}
}

func TestMethodString(t *testing.T) {
	if MethodEvolution.String() != "evolution" || MethodStandard.String() != "standard" {
		t.Error("Method.String mismatch")
	}
	if Method(9).String() != "Method(9)" {
		t.Error("out-of-range Method.String")
	}
}

func TestReport(t *testing.T) {
	res, err := SynthesizeContext(context.Background(), circuits.C17(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report()
	for _, want := range []string{"circuit c17", "modules:", "sensor area", "module  0"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
}

// TestTraceForwarded checks that Control.Trace reaches the optimizer and
// sees every generation exactly once, in order, with the best cost the
// run records for it.
func TestTraceForwarded(t *testing.T) {
	var gens []int
	var costs []float64
	res, err := SynthesizeContext(context.Background(), chaosCircuit(t), Options{
		Evolution: chaosParams(),
		Control: &evolution.Control{Trace: func(gen int, best *partition.Partition, bestCost float64) {
			gens = append(gens, gen)
			costs = append(costs, bestCost)
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ev := res.Evolution
	if len(gens) != ev.Generations || len(ev.History) != ev.Generations {
		t.Fatalf("trace called %d times over %d generations (history %d), want one call per generation",
			len(gens), ev.Generations, len(ev.History))
	}
	for i, gen := range gens {
		if gen != i+1 || costs[i] != ev.History[i] {
			t.Errorf("call %d: gen %d cost %v, want gen %d cost %v", i, gen, costs[i], i+1, ev.History[i])
		}
	}
}

// TestSynthesizeObserved is the end-to-end observability smoke test: a
// pipeline run with Options.Obs set and a tracer armed must record one
// core.synthesize trace of its phases, leave the optimizer's counters in
// the registry and publish the final status.
func TestSynthesizeObserved(t *testing.T) {
	o := obs.New("r-core", nil, nil)
	o.SetTracer(obs.NewTracer(obs.TracerConfig{}))
	res, err := SynthesizeContext(context.Background(), circuits.C17(), Options{Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	traces := o.Tracer().Snapshot().Slowest
	if len(traces) != 1 || traces[0].Root != "core.synthesize" {
		t.Fatalf("retained traces = %+v, want one rooted at core.synthesize", traces)
	}
	names := spanNames(traces[0].Spans)
	for _, phase := range []string{"core.synthesize", "core.annotate", "core.estimator", "core.optimize", "core.audit", "core.chip"} {
		if names[phase] != 1 {
			t.Errorf("%s spans = %d, want 1", phase, names[phase])
		}
	}
	if got, want := names["evolution.evaluate"], res.Evolution.Generations; got != want {
		t.Errorf("evolution.evaluate spans = %d, want one per generation (%d)", got, want)
	}
	s := o.Registry().Snapshot()
	if s.Counters[evolution.MetricEvaluations] == 0 {
		t.Error("optimizer counters missing: Options.Obs was not threaded into the evolution run")
	}
	if s.Counters[estimate.MetricEvalModuleCalls] == 0 {
		t.Error("estimator counters missing: Options.Obs was not threaded into the estimator")
	}
	if st, ok := o.Status().(evolution.RunStatus); !ok || st.BestCost != res.Evolution.BestCost {
		t.Errorf("published status = %+v, want final RunStatus of the run", o.Status())
	}
}

// A caller that supplies a span (the serving layer, the benchmark) owns the
// trace: the phases hang under its span and no core.synthesize root opens.
func TestSynthesizeTracedUnderCallerSpan(t *testing.T) {
	o := obs.New("r-caller", nil, nil)
	o.SetTracer(obs.NewTracer(obs.TracerConfig{}))
	root := o.Tracer().StartRoot("caller")
	_, err := SynthesizeContext(obs.ContextWithSpan(context.Background(), root), circuits.C17(), Options{Obs: o})
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	snap := o.Tracer().Snapshot()
	if len(snap.Slowest) != 1 || snap.Slowest[0].Root != "caller" {
		t.Fatalf("retained traces = %+v, want only the caller's", snap.Slowest)
	}
	if n := spanNames(snap.Recent)["core.synthesize"]; n != 0 {
		t.Errorf("%d core.synthesize spans under a caller span, want 0", n)
	}
	for _, sp := range snap.Slowest[0].Spans {
		// A root span's ID is its trace ID.
		if sp.Name == "core.optimize" && sp.Parent != root.Trace() {
			t.Errorf("core.optimize parent = %d, want the caller's span %d", sp.Parent, root.Trace())
		}
	}
}

// spanNames counts spans by name.
func spanNames(spans []obs.SpanRecord) map[string]int {
	n := map[string]int{}
	for _, sp := range spans {
		n[sp.Name]++
	}
	return n
}

// TestSynthesizeObservedViaContext checks the second carriage path: an
// Obs threaded through the context (as the experiment drivers do) must
// reach the optimizer without Options.Obs being set.
func TestSynthesizeObservedViaContext(t *testing.T) {
	o := obs.New("r-ctx", nil, nil)
	ctx := obs.NewContext(context.Background(), o)
	if _, err := SynthesizeContext(ctx, circuits.C17(), Options{}); err != nil {
		t.Fatal(err)
	}
	if o.Registry().Snapshot().Counters[evolution.MetricEvaluations] == 0 {
		t.Error("context-carried Obs did not reach the evolution run")
	}
}
