package core

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"

	"iddqsyn/internal/chaos"
	"iddqsyn/internal/circuit"
	"iddqsyn/internal/circuits"
	"iddqsyn/internal/electrical"
	"iddqsyn/internal/evolution"
	"iddqsyn/internal/obs"
	"iddqsyn/internal/partcheck"
)

// chaosParams is a small, fast evolution configuration for fault tests.
func chaosParams() *evolution.Params {
	return &evolution.Params{
		Mu: 4, Lambda: 3, Chi: 1, Omega: 6, MaxMove: 3, Epsilon: 1.0,
		MaxGenerations: 10, StallGenerations: 50, Seed: 3,
	}
}

func mustSchedule(t *testing.T, spec string) chaos.Schedule {
	t.Helper()
	sched, err := chaos.ParseSchedule(spec)
	if err != nil {
		t.Fatalf("ParseSchedule(%q): %v", spec, err)
	}
	return sched
}

// chaosCircuit is big enough that every generation actually evaluates
// descendants (C17 is so small most generations have no legal move, so
// one-shot after=N faults would never trigger).
func chaosCircuit(t *testing.T) *circuit.Circuit {
	t.Helper()
	c, err := circuits.RandomLogic(circuits.Spec{
		Name: "chaos", Inputs: 8, Outputs: 4, Gates: 60, Depth: 8, Seed: 7,
	})
	if err != nil {
		t.Fatalf("RandomLogic: %v", err)
	}
	return c
}

func TestDegradeFallsBackToStandard(t *testing.T) {
	inj := chaos.New(mustSchedule(t, "seed=9,rate=1,sites=evolution.worker.panic"), nil)
	o := obs.New("degrade", nil, nil)
	res, err := SynthesizeContext(chaos.NewContext(context.Background(), inj), circuits.C17(), Options{
		Evolution: chaosParams(),
		Obs:       o,
		Degrade:   true,
	})
	if err != nil {
		t.Fatalf("Synthesize with Degrade: %v", err)
	}
	if !res.Degraded {
		t.Fatal("persistent worker panics with Degrade set: result not marked Degraded")
	}
	if !errors.Is(res.DegradedErr, chaos.ErrInjected) {
		t.Fatalf("DegradedErr lost the injected-fault chain: %v", res.DegradedErr)
	}
	if res.Evolution != nil {
		t.Fatal("degraded result must not carry an evolution trace")
	}
	if r := partcheck.VerifyPartition(res.Partition, partcheck.StructureOnly()); !r.OK() {
		t.Fatalf("degraded partition fails the static audit: %v", r.Err())
	}
	if fails := o.Counter(MetricOptimizerFailures).Value(); fails < 2 {
		t.Fatalf("expected >= 2 recorded optimizer failures, got %d", fails)
	}
	if o.Counter(MetricDegraded).Value() != 1 {
		t.Fatalf("MetricDegraded = %d, want 1", o.Counter(MetricDegraded).Value())
	}
	if deg, reason := o.Degraded(); !deg || reason == "" {
		t.Fatalf("Obs.Degraded() = %v, %q; want sticky flag with a reason", deg, reason)
	}
	if !strings.Contains(res.Report(), "DEGRADED") {
		t.Fatal("Report() of a degraded result does not say DEGRADED")
	}
}

func TestPersistentFaultWithoutDegradeFails(t *testing.T) {
	inj := chaos.New(mustSchedule(t, "seed=9,rate=1,sites=evolution.worker.panic"), nil)
	_, err := SynthesizeContext(chaos.NewContext(context.Background(), inj), circuits.C17(), Options{
		Evolution: chaosParams(),
	})
	if err == nil {
		t.Fatal("persistent worker panics without Degrade: expected an error")
	}
	if !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("error lost the injected-fault chain: %v", err)
	}
}

func TestRetryAfterTransientFaultIsBitIdentical(t *testing.T) {
	baseline, err := SynthesizeContext(context.Background(), chaosCircuit(t), Options{Evolution: chaosParams()})
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	// A one-shot fault kills the first attempt; with Degrade set, the
	// retry re-runs the identical seeded optimization with the fault
	// already spent.
	inj := chaos.New(mustSchedule(t, "seed=4,after=5,sites=evolution.worker.panic"), nil)
	o := obs.New("retry", nil, nil)
	res, err := SynthesizeContext(chaos.NewContext(context.Background(), inj), chaosCircuit(t), Options{
		Evolution: chaosParams(),
		Obs:       o,
		Degrade:   true,
	})
	if err != nil {
		t.Fatalf("Synthesize with one-shot fault + retry: %v", err)
	}
	if res.Degraded {
		t.Fatal("retry recovered the run; result must not be Degraded")
	}
	if o.Counter(MetricOptimizerFailures).Value() != 1 {
		t.Fatalf("optimizer failures = %d, want exactly 1", o.Counter(MetricOptimizerFailures).Value())
	}
	if res.Evolution.BestCost != baseline.Evolution.BestCost ||
		res.Evolution.Generations != baseline.Evolution.Generations ||
		res.Evolution.Evaluations != baseline.Evolution.Evaluations {
		t.Fatalf("retried run diverged from baseline: cost %v vs %v, generations %d vs %d, evaluations %d vs %d",
			res.Evolution.BestCost, baseline.Evolution.BestCost,
			res.Evolution.Generations, baseline.Evolution.Generations,
			res.Evolution.Evaluations, baseline.Evolution.Evaluations)
	}
}

func TestPoisonedEstimatorDegrades(t *testing.T) {
	// estimate.nan with after=3 poisons one estimator call; with Degrade
	// set and the fault spent on attempt 1, the retry succeeds.
	inj := chaos.New(mustSchedule(t, "seed=2,after=3,sites=estimate.nan"), nil)
	res, err := SynthesizeContext(chaos.NewContext(context.Background(), inj), chaosCircuit(t), Options{
		Evolution: chaosParams(),
		Degrade:   true,
	})
	if err != nil {
		t.Fatalf("Synthesize with one-shot NaN + Degrade: %v", err)
	}
	if res.Degraded {
		t.Fatal("one-shot NaN should be absorbed by the retry, not degrade the run")
	}
}

// TestAuditChaosNaNIsNamedError poisons module evaluation while the audit
// runs on its workers: the standard method at a fixed module size
// evaluates no module before the audit, so every estimate.nan hit fires
// inside VerifyPartition, on whichever goroutine evaluates that module.
// Under GOMAXPROCS 1, 2, 3 and 8 the synthesis must end with the named
// containment error, its ErrNonFinite chain intact, and no result.
func TestAuditChaosNaNIsNamedError(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 3, 8} {
		runtime.GOMAXPROCS(procs)
		for _, spec := range []string{"seed=5,rate=1,sites=estimate.nan", "seed=5,after=4,sites=estimate.nan"} {
			inj := chaos.New(mustSchedule(t, spec), nil)
			res, err := SynthesizeContext(chaos.NewContext(context.Background(), inj), chaosCircuit(t), Options{
				Method: MethodStandard, ModuleSize: 6,
			})
			if res != nil || err == nil {
				t.Fatalf("GOMAXPROCS %d, %s: result %v, error %v; want a contained failure", procs, spec, res, err)
			}
			if !errors.Is(err, electrical.ErrNonFinite) || !strings.HasPrefix(err.Error(), "core: synthesis panicked: ") {
				t.Fatalf("GOMAXPROCS %d, %s: error %q; want the synthesis containment error wrapping ErrNonFinite", procs, spec, err)
			}
		}
	}
}
