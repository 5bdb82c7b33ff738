package core_test

import (
	"context"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"iddqsyn/internal/celllib"
	"iddqsyn/internal/circuit"
	"iddqsyn/internal/circuits"
	"iddqsyn/internal/core"
	"iddqsyn/internal/estimate"
	"iddqsyn/internal/obs"
)

// prepared annotates c with the default library and builds its estimator,
// as SynthesizeContext does when Options.Estimator is nil.
func prepared(t *testing.T, c *circuit.Circuit) *estimate.Estimator {
	t.Helper()
	a, err := celllib.Annotate(c, celllib.Default())
	if err != nil {
		t.Fatal(err)
	}
	return estimate.New(a, estimate.DefaultParams())
}

// Two syntheses over one prepared estimator, each with its own Obs and
// running at once, must each give the result the same synthesis gives
// alone, bit for bit, and each run's estimator counters must read what
// the solo run's do: the runs share the circuit's tables and scratch
// pool, never their handles. A run's D_BIC sweep count depends on the
// order its parallel evaluations finish in (a descendant is pruned
// against the costs its generation knows so far), so it is compared with
// one worker per run, where that order is fixed; module evaluations are
// compared at every worker count.
func TestConcurrentSynthesesShareOneEstimator(t *testing.T) {
	c := circuits.MustISCAS85Like("c432")
	e := prepared(t, c)
	synthesize := func(o *obs.Obs) *core.Result {
		res, err := core.SynthesizeContext(context.Background(), c, core.Options{
			Estimator: e, Evolution: generations(6), ModuleSize: 8, Obs: o,
		})
		if err != nil {
			t.Error(err)
		}
		return res
	}
	for _, procs := range []int{1, runtime.GOMAXPROCS(0)} {
		prev := runtime.GOMAXPROCS(procs)
		soloObs := obs.New("solo", nil, nil)
		solo := synthesize(soloObs)
		var wg sync.WaitGroup
		runs := [2]struct {
			o   *obs.Obs
			res *core.Result
		}{{o: obs.New("run-a", nil, nil)}, {o: obs.New("run-b", nil, nil)}}
		for i := range runs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				runs[i].res = synthesize(runs[i].o)
			}()
		}
		wg.Wait()
		runtime.GOMAXPROCS(prev)
		if t.Failed() {
			t.FailNow()
		}
		counters := []string{estimate.MetricEvalModuleCalls}
		if procs == 1 {
			counters = append(counters, estimate.MetricBICDelaySweeps)
		}
		want, wantCounts := synthRecord(t, solo), soloObs.Registry().Snapshot().Counters
		for i, r := range runs {
			if got := synthRecord(t, r.res); !reflect.DeepEqual(got, want) {
				t.Errorf("GOMAXPROCS %d: run %d = %+v, solo %+v", procs, i, got, want)
			}
			if !sameBits(r.res.Evolution.History, solo.Evolution.History) {
				t.Errorf("GOMAXPROCS %d: run %d best-cost history differs from the solo run's", procs, i)
			}
			counts := r.o.Registry().Snapshot().Counters
			for _, name := range counters {
				if counts[name] != wantCounts[name] || counts[name] == 0 {
					t.Errorf("GOMAXPROCS %d: run %d %s = %d, solo %d", procs, i, name, counts[name], wantCounts[name])
				}
			}
		}
		if r := runs[0].res; r.Estimator == e || r.Estimator == runs[1].res.Estimator || r.Estimator.A != e.A {
			t.Error("each run must hold its own view of the prepared estimator, over its annotation")
		}
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// An estimator prepared for one circuit cannot synthesize another, not
// even an equal copy: the estimator's tables are indexed by its own
// circuit's gates.
func TestSynthesizeRejectsAnotherCircuitsEstimator(t *testing.T) {
	e := prepared(t, circuits.C17())
	_, err := core.SynthesizeContext(context.Background(), circuits.C17(), core.Options{Estimator: e})
	if err == nil || !strings.Contains(err.Error(), "Options.Estimator") {
		t.Fatalf("synthesis over another circuit's estimator: err = %v, want a named rejection", err)
	}
}
