package chaos_test

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"iddqsyn/internal/chaos"
	"iddqsyn/internal/circuit"
	"iddqsyn/internal/circuits"
	"iddqsyn/internal/core"
	"iddqsyn/internal/electrical"
	"iddqsyn/internal/evolution"
	"iddqsyn/internal/fsx"
	"iddqsyn/internal/obs"
	"iddqsyn/internal/partcheck"
	"iddqsyn/internal/partition"
)

// The chaos soak drives full syntheses through a matrix of fault
// schedules and asserts the pipeline's end-state contract: every run
// finishes with a partcheck-valid partition (optimized or degraded) or a
// named error — never a crash, never a corrupt artifact — and whenever
// recovery succeeds without degradation, the result is bit-identical to
// the uninjected baseline.

func soakCircuit(t *testing.T) *circuit.Circuit {
	t.Helper()
	c, err := circuits.RandomLogic(circuits.Spec{
		Name: "soak", Inputs: 8, Outputs: 4, Gates: 48, Depth: 7, Seed: 11,
	})
	if err != nil {
		t.Fatalf("RandomLogic: %v", err)
	}
	return c
}

func soakParams() *evolution.Params {
	return &evolution.Params{
		Mu: 4, Lambda: 3, Chi: 1, Omega: 6, MaxMove: 3, Epsilon: 1.0,
		MaxGenerations: 12, StallGenerations: 50, Seed: 21,
	}
}

// soakRun is one synthesis under a fault schedule ("" = uninjected),
// checkpointing into ckpt when non-empty.
func soakRun(t *testing.T, c *circuit.Circuit, spec, ckpt string, degrade bool) (*core.Result, *obs.Obs, error) {
	t.Helper()
	opt := core.Options{
		Evolution: soakParams(),
		Obs:       obs.New("soak", nil, nil),
		Degrade:   degrade,
	}
	var inj *chaos.Injector
	if spec != "" {
		sched, err := chaos.ParseSchedule(spec)
		if err != nil {
			t.Fatalf("ParseSchedule(%q): %v", spec, err)
		}
		inj = chaos.New(sched, opt.Obs)
	}
	if ckpt != "" || inj != nil {
		opt.Control = &evolution.Control{
			CheckpointPath:  ckpt,
			CheckpointEvery: 2,
			FS:              chaos.NewFS(nil, inj),
			Retry:           &fsx.RetryPolicy{Sleep: func(time.Duration) {}},
		}
	}
	res, err := core.SynthesizeContext(chaos.NewContext(context.Background(), inj), c, opt)
	return res, opt.Obs, err
}

// assertBitIdentical fails unless res reproduces the baseline exactly.
func assertBitIdentical(t *testing.T, res, baseline *core.Result) {
	t.Helper()
	if res.Evolution == nil || baseline.Evolution == nil {
		t.Fatal("bit-identity check needs evolution results on both sides")
	}
	if res.Evolution.BestCost != baseline.Evolution.BestCost ||
		res.Evolution.Generations != baseline.Evolution.Generations ||
		res.Evolution.Evaluations != baseline.Evolution.Evaluations {
		t.Fatalf("diverged from baseline: cost %v vs %v, generations %d vs %d, evaluations %d vs %d",
			res.Evolution.BestCost, baseline.Evolution.BestCost,
			res.Evolution.Generations, baseline.Evolution.Generations,
			res.Evolution.Evaluations, baseline.Evolution.Evaluations)
	}
	if !reflect.DeepEqual(res.Partition.Groups(), baseline.Partition.Groups()) {
		t.Fatal("partition groups diverged from baseline")
	}
}

// assertValid fails unless the partition passes the static audit with a
// finite cost — the minimum any returned result must satisfy.
func assertValid(t *testing.T, res *core.Result) {
	t.Helper()
	if r := partcheck.VerifyPartition(res.Partition, partcheck.StructureOnly()); !r.OK() {
		t.Fatalf("partition fails the static audit: %v", r.Err())
	}
	if cost := res.Partition.Cost(); math.IsNaN(cost) || math.IsInf(cost, 0) {
		t.Fatalf("partition cost is not finite: %g", cost)
	}
}

// namedFailure reports whether err carries one of the pipeline's typed
// failure causes — the "named error" half of the end-state contract. An
// injected NaN legitimately surfaces as electrical.ErrNonFinite (the
// numeric guard fires before anyone can tell the value was injected).
func namedFailure(err error) bool {
	return errors.Is(err, chaos.ErrInjected) ||
		errors.Is(err, electrical.ErrNonFinite) ||
		errors.Is(err, partition.ErrNonFiniteCost) ||
		errors.Is(err, evolution.ErrCorruptCheckpoint)
}

func TestChaosSoak(t *testing.T) {
	c := soakCircuit(t)
	baseline, _, err := soakRun(t, c, "", "", false)
	if err != nil {
		t.Fatalf("baseline synthesis: %v", err)
	}
	assertValid(t, baseline)

	schedules := []string{
		"seed=1,rate=0,sites=fs.*",
		"seed=2,after=4,sites=evolution.worker.panic",
		"seed=3,after=6,sites=estimate.nan",
		"seed=4,rate=0.25,sites=fs.sync|fs.rename|fs.write",
		"seed=5,rate=1,sites=fs.write",
		"seed=6,rate=0.2,delay=200us,sites=evolution.worker.delay",
		"seed=7,rate=0.4,sites=evolution.worker.panic|estimate.nan",
		// Disk-lifecycle faults: a filling disk (genuine ENOSPC) and torn
		// appends; the checkpoint path must retry or fail with the cause
		// named, never corrupt what is already on disk.
		"seed=8,rate=0.3,sites=fs.enospc",
		"seed=9,rate=0.3,sites=fs.write.short|fs.sync",
		"seed=10,rate=0.2,sites=fs.enospc|fs.write.short|fs.rename",
	}
	for _, spec := range schedules {
		spec := spec
		t.Run(spec, func(t *testing.T) {
			ckpt := filepath.Join(t.TempDir(), "soak.ckpt")
			res, o, err := soakRun(t, c, spec, ckpt, true)
			switch {
			case err != nil:
				// A failed run must fail with its cause named, and any
				// checkpoint it left behind must be intact and resumable
				// to the exact baseline result.
				if !namedFailure(err) {
					t.Fatalf("run failed but the error does not name the injected fault: %v", err)
				}
				if _, serr := os.Stat(ckpt); serr == nil {
					ck, lerr := evolution.LoadCheckpoint(ckpt)
					if lerr != nil {
						t.Fatalf("failed run left a corrupt checkpoint: %v", lerr)
					}
					resumed, rerr := core.SynthesizeContext(context.Background(), c, core.Options{Resume: ck})
					if rerr != nil {
						t.Fatalf("resume from the failed run's checkpoint: %v", rerr)
					}
					assertBitIdentical(t, resumed, baseline)
				}
			case res.Degraded:
				assertValid(t, res)
				if !namedFailure(res.DegradedErr) {
					t.Fatalf("DegradedErr does not name the injected fault: %v", res.DegradedErr)
				}
				if deg, _ := o.Degraded(); !deg {
					t.Fatal("degraded result but Obs.Degraded() is false")
				}
			default:
				// Recovery succeeded without degradation: the run must be
				// indistinguishable from the uninjected baseline.
				assertValid(t, res)
				assertBitIdentical(t, res, baseline)
			}
		})
	}

	t.Run("zero-rate schedule injects nothing", func(t *testing.T) {
		sched, err := chaos.ParseSchedule("seed=1,rate=0,sites=fs.*|evolution.*|estimate.*")
		if err != nil {
			t.Fatal(err)
		}
		inj := chaos.New(sched, nil)
		res, err := core.SynthesizeContext(chaos.NewContext(context.Background(), inj), c, core.Options{
			Evolution: soakParams(),
			Control:   &evolution.Control{FS: chaos.NewFS(nil, inj)},
		})
		if err != nil {
			t.Fatalf("zero-rate run: %v", err)
		}
		if inj.Total() != 0 {
			t.Fatalf("zero-rate schedule injected %d faults", inj.Total())
		}
		assertBitIdentical(t, res, baseline)
	})

	t.Run("resume after kill", func(t *testing.T) {
		// A one-shot worker panic with no retry kills the run partway,
		// leaving the last periodic checkpoint behind — the crash
		// scenario. Resuming it without chaos must land exactly on the
		// baseline result.
		ckpt := filepath.Join(t.TempDir(), "killed.ckpt")
		_, _, err := soakRun(t, c, "seed=8,after=40,sites=evolution.worker.panic", ckpt, false)
		if err == nil {
			t.Skip("one-shot fault did not fire before the run completed")
		}
		if !errors.Is(err, chaos.ErrInjected) {
			t.Fatalf("killed run error does not name the injected fault: %v", err)
		}
		ck, err := evolution.LoadCheckpoint(ckpt)
		if err != nil {
			t.Fatalf("load checkpoint of killed run: %v", err)
		}
		resumed, err := core.SynthesizeContext(context.Background(), c, core.Options{Resume: ck})
		if err != nil {
			t.Fatalf("resume killed run: %v", err)
		}
		assertBitIdentical(t, resumed, baseline)
	})
}
