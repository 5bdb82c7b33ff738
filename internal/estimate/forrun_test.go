package estimate

import (
	"math"
	"sync"
	"testing"

	"iddqsyn/internal/chaos"
	"iddqsyn/internal/obs"
)

// evalAndSweep evaluates the logic gates of c17 as one module and runs a
// first D_BIC sweep over it, so both of a view's counters would move.
func evalAndSweep(e *Estimator) float64 {
	c := e.A.Circuit
	m := e.EvalModule(c.LogicGates())
	arrival, delay := make([]float64, c.NumGates()), make([]float64, c.NumGates())
	return e.UpdateBICDelay(arrival, delay, []*Module{m})
}

// ForRun binds the view it returns, never the estimator it is called on,
// and an unobserved view of an observed estimator moves no counter.
func TestForRunBindsOnlyTheView(t *testing.T) {
	e := New(annotatedC17(t), DefaultParams())
	o := obs.New("observed", nil, nil)
	observed := e.ForRun(o, nil)
	want := evalAndSweep(e)
	if got := evalAndSweep(observed); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("observed view D_BIC = %v, estimator %v", got, want)
	}
	counters := []string{MetricEvalModuleCalls, MetricBICDelaySweeps, MetricBICDelayGates}
	snap := o.Registry().Snapshot()
	for _, name := range counters {
		if snap.Counters[name] == 0 {
			t.Errorf("observed view left %s at 0", name)
		}
	}
	if e.evalCalls != nil || e.bicSweeps != nil {
		t.Error("ForRun attached handles to the estimator it was called on")
	}

	evalAndSweep(observed.ForRun(nil, nil))
	after := o.Registry().Snapshot()
	for _, name := range counters {
		if after.Counters[name] != snap.Counters[name] {
			t.Errorf("ForRun(nil, nil) view moved %s: %d → %d", name, snap.Counters[name], after.Counters[name])
		}
	}
}

// Injectors are per view: a view armed to poison every evaluation fires
// estimate.nan on each of its calls while an unarmed view of the same
// estimator, evaluating concurrently, stays clean.
func TestForRunChaosStaysInItsView(t *testing.T) {
	a := annotatedC17(t)
	sched, err := chaos.ParseSchedule("seed=1,rate=1,sites=" + chaos.SiteEstimateNaN)
	if err != nil {
		t.Fatal(err)
	}
	e := New(a, DefaultParams())
	armed, clean := e.ForRun(nil, chaos.New(sched, nil)), e.ForRun(nil, nil)
	const calls = 200
	var wg sync.WaitGroup
	var armedPanics, cleanPanics int
	wg.Add(2)
	go func() {
		defer wg.Done()
		for range calls {
			if evalPanics(armed, a.Circuit.LogicGates()) != nil {
				armedPanics++
			}
		}
	}()
	go func() {
		defer wg.Done()
		for range calls {
			if evalPanics(clean, a.Circuit.LogicGates()) != nil {
				cleanPanics++
			}
		}
	}()
	wg.Wait()
	if armedPanics != calls {
		t.Errorf("armed view panicked on %d of %d evaluations, want all", armedPanics, calls)
	}
	if cleanPanics != 0 {
		t.Errorf("unarmed view panicked on %d of %d evaluations, want none", cleanPanics, calls)
	}
}
