package evolution

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"iddqsyn/internal/circuits"
	"iddqsyn/internal/estimate"
	"iddqsyn/internal/partition"
)

// procsName names the subtests that run under GOMAXPROCS 1 and 4.
var procsName = map[int]string{1: "sequential", 4: "workers4"}

// setProcs runs the rest of the test under runtime.GOMAXPROCS(n), which
// sizes the cost-evaluation pool, and restores the old value afterwards.
func setProcs(t *testing.T, n int) {
	t.Helper()
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// controlSetup builds an optimization environment on a circuit large
// enough that the optimizer runs for many generations without stalling,
// plus parameters sized so the run never stalls out before its budget.
func controlSetup(t *testing.T) (*partitionEnv, Params) {
	t.Helper()
	c, err := circuits.RandomLogic(circuits.Spec{
		Name: "ctl", Inputs: 8, Outputs: 4, Gates: 60, Depth: 8, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	env := &partitionEnv{
		e:    estimatorFor(t, c),
		w:    partition.PaperWeights(),
		cons: partition.DefaultConstraints(),
	}
	prm := Params{
		Mu: 4, Lambda: 3, Chi: 1, Omega: 6,
		MaxMove: 3, Epsilon: 1.0,
		MaxGenerations:   25,
		StallGenerations: 50, // > MaxGenerations: the loop never stalls out
		Seed:             3,
	}
	return env, prm
}

// runChain optimizes the §4.2 start population at the estimated module
// size — the flow core.SynthesizeContext runs for a fresh synthesis.
func runChain(ctx context.Context, e *estimate.Estimator, w partition.Weights, cons partition.Constraints, prm Params, ctl *Control) (*Result, error) {
	starts, err := ChainStarts(e, w, cons, 0, prm)
	if err != nil {
		return nil, err
	}
	return Optimize(ctx, starts, prm, ctl)
}

type partitionEnv struct {
	e    *estimate.Estimator
	w    partition.Weights
	cons partition.Constraints
}

func TestCancellationReturnsBestSoFar(t *testing.T) {
	env, prm := controlSetup(t)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const cancelAt = 5
	trace := func(gen int, best *partition.Partition, bestCost float64) {
		if gen == cancelAt {
			cancel()
		}
	}
	res, err := runChain(ctx, env.e, env.w, env.cons, prm, &Control{Trace: trace})
	if err != nil {
		t.Fatalf("cancellation must not be an error: %v", err)
	}
	if !res.Interrupted {
		t.Fatal("Interrupted not set")
	}
	if !errors.Is(res.Err, context.Canceled) {
		t.Errorf("Err = %v, want wrapped context.Canceled", res.Err)
	}
	// The cancel fires inside the trace of generation cancelAt; the loop
	// must stop at the very next generation boundary.
	if res.Generations != cancelAt {
		t.Errorf("stopped after generation %d, want %d (within one generation of the cancel)",
			res.Generations, cancelAt)
	}
	if res.Best == nil || res.BestCost <= 0 {
		t.Error("interrupted run must still carry the best-so-far individual")
	}
}

func TestPreCancelledContext(t *testing.T) {
	env, prm := controlSetup(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := runChain(ctx, env.e, env.w, env.cons, prm, nil)
	if err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	if !res.Interrupted || res.Generations != 0 {
		t.Errorf("want interruption before generation 1, got interrupted=%v gen=%d",
			res.Interrupted, res.Generations)
	}
	if res.Best == nil {
		t.Error("even a pre-cancelled run must return the best start individual")
	}
}

// The acceptance test of the run-control layer: a run interrupted
// mid-flight and resumed from its checkpoint must end with exactly the
// final cost, partition and bookkeeping of a run that was never
// interrupted — on one core and on four alike.
func TestCheckpointResumeBitIdentical(t *testing.T) {
	for _, procs := range []int{1, 4} {
		t.Run(procsName[procs], func(t *testing.T) {
			setProcs(t, procs)
			env, prm := controlSetup(t)

			baseline, err := runChain(context.Background(), env.e, env.w, env.cons, prm, nil)
			if err != nil {
				t.Fatal(err)
			}
			if baseline.Interrupted {
				t.Fatal("baseline must run to completion")
			}

			ckpt := filepath.Join(t.TempDir(), "run.ckpt")
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			ctl := &Control{CheckpointPath: ckpt, CheckpointEvery: 5,
				Trace: func(gen int, best *partition.Partition, bestCost float64) {
					if gen == 12 {
						cancel()
					}
				}}
			interrupted, err := runChain(ctx, env.e, env.w, env.cons, prm, ctl)
			if err != nil {
				t.Fatal(err)
			}
			if !interrupted.Interrupted {
				t.Fatal("run was not interrupted")
			}

			ck, err := LoadCheckpoint(ckpt)
			if err != nil {
				t.Fatal(err)
			}
			resumed, err := Resume(context.Background(), ck, env.e, env.w, env.cons, nil)
			if err != nil {
				t.Fatal(err)
			}
			if resumed.Interrupted {
				t.Fatal("resumed run must complete")
			}

			if resumed.BestCost != baseline.BestCost {
				t.Errorf("final cost %v != uninterrupted %v", resumed.BestCost, baseline.BestCost)
			}
			if !reflect.DeepEqual(resumed.Best.Groups(), baseline.Best.Groups()) {
				t.Error("final best partition differs from the uninterrupted run")
			}
			if resumed.Generations != baseline.Generations {
				t.Errorf("generations %d != %d", resumed.Generations, baseline.Generations)
			}
			if resumed.Evaluations != baseline.Evaluations {
				t.Errorf("evaluations %d != %d", resumed.Evaluations, baseline.Evaluations)
			}
			if !reflect.DeepEqual(resumed.History, baseline.History) {
				t.Error("cost history differs from the uninterrupted run")
			}
		})
	}
}

func TestPeriodicCheckpointIsLoadable(t *testing.T) {
	env, prm := controlSetup(t)
	ckpt := filepath.Join(t.TempDir(), "periodic.ckpt")
	_, err := runChain(context.Background(), env.e, env.w, env.cons, prm,
		&Control{CheckpointPath: ckpt, CheckpointEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	ck, err := LoadCheckpoint(ckpt)
	if err != nil {
		t.Fatalf("periodic checkpoint unreadable: %v", err)
	}
	if ck.Generation%2 != 0 || ck.Generation <= 0 {
		t.Errorf("checkpoint generation %d, want a positive multiple of the cadence", ck.Generation)
	}
	if ck.Circuit != "ctl" || len(ck.Population) != prm.Mu {
		t.Errorf("checkpoint identity/population wrong: circuit=%q pop=%d", ck.Circuit, len(ck.Population))
	}
}

func TestLoadCheckpointErrors(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, data []byte) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}

	if _, err := LoadCheckpoint(filepath.Join(dir, "missing.ckpt")); err == nil {
		t.Error("missing file: want error")
	}
	if _, err := LoadCheckpoint(write("garbage.ckpt", []byte("{truncated"))); err == nil {
		t.Error("corrupted JSON: want error")
	} else if !strings.Contains(err.Error(), "corrupted") {
		t.Errorf("corrupted JSON: error %q should say so", err)
	}
	if _, err := LoadCheckpoint(write("foreign.ckpt", []byte(`{"format":"something-else"}`))); err == nil {
		t.Error("foreign format: want error")
	}

	// A version from the future must be rejected, not misinterpreted.
	env, prm := controlSetup(t)
	good := filepath.Join(dir, "good.ckpt")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := runChain(ctx, env.e, env.w, env.cons, prm,
		&Control{CheckpointPath: good}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]any
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	raw["version"] = CheckpointVersion + 1
	bumped, err := json.Marshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(write("future.ckpt", bumped)); err == nil {
		t.Error("future version: want error")
	} else if !strings.Contains(err.Error(), "version") {
		t.Errorf("future version: error %q should name the version", err)
	}
}

// A hand-corrupted checkpoint — here the best individual claims a gate
// twice across modules — must be rejected on load with the violated
// PART-IDDQ constraint named.
func TestResumeRejectsCorruptedPartition(t *testing.T) {
	env, prm := controlSetup(t)
	ckpt := filepath.Join(t.TempDir(), "c.ckpt")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := runChain(ctx, env.e, env.w, env.cons, prm,
		&Control{CheckpointPath: ckpt}); err != nil {
		t.Fatal(err)
	}
	corrupt := func(mutate func(ck *Checkpoint)) error {
		ck, err := LoadCheckpoint(ckpt)
		if err != nil {
			t.Fatal(err)
		}
		mutate(ck)
		_, err = Resume(context.Background(), ck, env.e, env.w, env.cons, nil)
		return err
	}
	err := corrupt(func(ck *Checkpoint) {
		// Duplicate the first gate of module 0 into the last module.
		last := len(ck.Best) - 1
		ck.Best[last] = append(ck.Best[last], ck.Best[0][0])
	})
	if err == nil || !strings.Contains(err.Error(), "gate-cover") {
		t.Errorf("duplicated gate: err = %v, want the gate-cover constraint named", err)
	}
	err = corrupt(func(ck *Checkpoint) {
		// Drop a gate from a population individual: no longer a cover.
		g := ck.Population[0].Groups
		g[0] = g[0][1:]
	})
	if err == nil || !strings.Contains(err.Error(), "gate-cover") {
		t.Errorf("dropped gate: err = %v, want the gate-cover constraint named", err)
	}
}

func TestResumeRejectsWrongCircuit(t *testing.T) {
	env, prm := controlSetup(t)
	ckpt := filepath.Join(t.TempDir(), "c.ckpt")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := runChain(ctx, env.e, env.w, env.cons, prm,
		&Control{CheckpointPath: ckpt}); err != nil {
		t.Fatal(err)
	}
	ck, err := LoadCheckpoint(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	other := estimatorFor(t, circuits.C17())
	if _, err := Resume(context.Background(), ck, other, env.w, env.cons, nil); err == nil {
		t.Error("resuming against a different circuit must fail")
	}
}

func TestWorkerPanicSurfacesAsError(t *testing.T) {
	for _, procs := range []int{1, 4} {
		t.Run(procsName[procs], func(t *testing.T) {
			setProcs(t, procs)
			env, prm := controlSetup(t)
			var calls atomic.Int64
			testEvalHook = func(i int, p *partition.Partition) {
				if calls.Add(1) == int64(prm.Mu+3) { // past the initial population, inside generation 1
					panic("injected evaluation fault")
				}
			}
			defer func() { testEvalHook = nil }()

			_, err := runChain(context.Background(), env.e, env.w, env.cons, prm, nil)
			if err == nil {
				t.Fatal("injected panic must surface as an error")
			}
			msg := err.Error()
			if !strings.Contains(msg, "panicked") || !strings.Contains(msg, "descendant") {
				t.Errorf("error %q should identify the panicking descendant", msg)
			}
			if !strings.Contains(msg, "injected evaluation fault") {
				t.Errorf("error %q should carry the panic value", msg)
			}
		})
	}
}

// A panic in the first descendant of a generation, raised while the loop
// may still be cloning the rest, ends the run with an error naming that
// descendant: the loop stops submitting, Optimize returns instead of
// blocking on a send, and every pool worker exits with the run.
func TestPanicInFirstDescendantStopsTheGeneration(t *testing.T) {
	for _, procs := range []int{1, 4} {
		t.Run(procsName[procs], func(t *testing.T) {
			setProcs(t, procs)
			env, prm := controlSetup(t)
			prm.Lambda = 40 // a long clone-and-mutate phase behind the panicking descendant
			var calls atomic.Int64
			testEvalHook = func(i int, p *partition.Partition) {
				// The first μ calls cost the start population; index 0
				// after them is generation 1's first descendant.
				if n := calls.Add(1); i == 0 && n > int64(prm.Mu) {
					panic("first descendant fault")
				}
			}
			defer func() { testEvalHook = nil }()

			baseline := runtime.NumGoroutine()
			done := make(chan error, 1)
			go func() {
				_, err := runChain(context.Background(), env.e, env.w, env.cons, prm, nil)
				done <- err
			}()
			var err error
			select {
			case err = <-done:
			case <-time.After(30 * time.Second):
				t.Fatal("Optimize did not return after a worker panic")
			}
			if err == nil {
				t.Fatal("injected panic must surface as an error")
			}
			if msg := err.Error(); !strings.Contains(msg, "descendant 0 of generation 1 panicked") ||
				!strings.Contains(msg, "first descendant fault") {
				t.Errorf("error %q should name descendant 0 of generation 1 and carry the panic value", msg)
			}
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > baseline {
				t.Errorf("%d goroutines after the run, %d before: pool workers leaked", n, baseline)
			}
		})
	}
}
