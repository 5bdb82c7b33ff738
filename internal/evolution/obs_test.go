package evolution

import (
	"context"
	"encoding/json"
	"log/slog"
	"path/filepath"
	"strings"
	"testing"

	"iddqsyn/internal/circuits"
	"iddqsyn/internal/obs"
	"iddqsyn/internal/partition"
)

// TestObservedRunMetricsMatchResult checks that the telemetry a run
// records agrees with the Result it returns — and that observing a run
// does not perturb it (the instrumentation must never touch the seeded
// random stream).
func TestObservedRunMetricsMatchResult(t *testing.T) {
	env, prm := controlSetup(t)

	unobserved, err := runChain(context.Background(), env.e, env.w, env.cons, prm, nil)
	if err != nil {
		t.Fatal(err)
	}

	o := obs.New("r-obs", nil, nil)
	res, err := runChain(obs.NewContext(context.Background(), o), env.e, env.w, env.cons, prm, nil)
	if err != nil {
		t.Fatal(err)
	}

	if res.BestCost != unobserved.BestCost || res.Evaluations != unobserved.Evaluations {
		t.Errorf("observed run diverged: cost %v/%v evals %d/%d",
			res.BestCost, unobserved.BestCost, res.Evaluations, unobserved.Evaluations)
	}

	s := o.Registry().Snapshot()
	if got := s.Counters[MetricEvaluations]; got != uint64(res.Evaluations) {
		t.Errorf("%s = %d, want %d (Result.Evaluations)", MetricEvaluations, got, res.Evaluations)
	}
	if got := s.Counters[MetricGenerations]; got != uint64(res.Generations) {
		t.Errorf("%s = %d, want %d (Result.Generations)", MetricGenerations, got, res.Generations)
	}
	if s.Counters[MetricMutationAttempts] == 0 || s.Counters[MetricMutationApplied] == 0 {
		t.Errorf("mutation counters empty: %v", s.Counters)
	}
	if got := s.Histograms[MetricEvalSeconds].Count; got == 0 {
		t.Error("evaluation latency histogram recorded nothing")
	}
	if got := s.Gauges[MetricBestCostGauge]; got != res.BestCost {
		t.Errorf("%s = %v, want %v", MetricBestCostGauge, got, res.BestCost)
	}

	status, ok := o.Status().(RunStatus)
	if !ok {
		t.Fatalf("live status is %T, want RunStatus", o.Status())
	}
	if status.Generation != res.Generations || status.BestCost != res.BestCost {
		t.Errorf("status = gen %d cost %v, want gen %d cost %v",
			status.Generation, status.BestCost, res.Generations, res.BestCost)
	}
	if len(status.History) != len(res.History) {
		t.Errorf("status history has %d entries, want %d", len(status.History), len(res.History))
	}
}

// TestResumedRunContinuesCountersMonotonically is the acceptance test
// for metrics inside checkpoints: a run interrupted mid-flight leaves
// its cumulative telemetry in the checkpoint, and a resume with a fresh
// Obs restores it, so counters continue monotonically and end exactly
// where an uninterrupted observed run ends.
func TestResumedRunContinuesCountersMonotonically(t *testing.T) {
	env, prm := controlSetup(t)

	oBase := obs.New("r-base", nil, nil)
	baseline, err := runChain(obs.NewContext(context.Background(), oBase), env.e, env.w, env.cons, prm, nil)
	if err != nil {
		t.Fatal(err)
	}
	if baseline.Interrupted {
		t.Fatal("baseline must run to completion")
	}
	base := oBase.Registry().Snapshot()

	oInt := obs.New("r-interrupted", nil, nil)
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	ctx, cancel := context.WithCancel(obs.NewContext(context.Background(), oInt))
	defer cancel()
	trace := func(gen int, best *partition.Partition, bestCost float64) {
		if gen == 12 {
			cancel()
		}
	}
	interrupted, err := runChain(ctx, env.e, env.w, env.cons, prm,
		&Control{CheckpointPath: ckpt, CheckpointEvery: 5, Trace: trace})
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
	if ck.Metrics == nil {
		t.Fatal("observed checkpoint carries no metrics snapshot")
	}
	mid := ck.Metrics.Counters[MetricEvaluations]
	if mid == 0 || mid >= base.Counters[MetricEvaluations] {
		t.Fatalf("mid-run evaluations = %d, want in (0, %d)", mid, base.Counters[MetricEvaluations])
	}
	if ck.Metrics.Counters[MetricCheckpointWrites] == 0 {
		t.Error("checkpoint metrics must include the write that produced them")
	}

	// Resume into a fresh Obs: the restored counters must pick up where
	// the checkpoint left off, never reset.
	oRes := obs.New("r-resumed", nil, nil)
	resumed, err := Resume(obs.NewContext(context.Background(), oRes), ck, env.e, env.w, env.cons, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Interrupted {
		t.Fatal("resumed run must complete")
	}
	if resumed.BestCost != baseline.BestCost {
		t.Errorf("resumed cost %v != baseline %v", resumed.BestCost, baseline.BestCost)
	}

	got := oRes.Registry().Snapshot()
	if got.Counters[MetricEvaluations] < mid {
		t.Errorf("evaluations went backwards: %d after resume < %d at checkpoint",
			got.Counters[MetricEvaluations], mid)
	}
	// The resumed run replays the exact missing generations, so every
	// cumulative counter must land on the uninterrupted totals.
	for _, name := range []string{
		MetricEvaluations, MetricGenerations,
		MetricMutationAttempts, MetricMutationApplied, MetricMutationAccepted,
		MetricMonteCarloAttempts, MetricMonteCarloApplied, MetricMonteCarloAccepted,
		MetricInfeasible, MetricImprovements,
	} {
		if got.Counters[name] != base.Counters[name] {
			t.Errorf("%s = %d after resume, want %d (uninterrupted baseline)",
				name, got.Counters[name], base.Counters[name])
		}
	}
	// Checkpoint writes belong to the interrupted run's history, not the
	// baseline's (which wrote none) — they must survive the restore.
	if got.Counters[MetricCheckpointWrites] == 0 {
		t.Error("restored checkpoint-write count lost on resume")
	}
}

// TestSingleModuleStartWarns checks that a degenerate run names itself: at
// a module size no smaller than C17's gate count every start is one
// module, the operators cannot move a gate, and the run logs one Warn
// record saying so. Starts with several modules log none.
func TestSingleModuleStartWarns(t *testing.T) {
	c := circuits.C17()
	e := estimatorFor(t, c)
	w, cons := partition.PaperWeights(), partition.DefaultConstraints()
	prm := DefaultParams()
	prm.MaxGenerations = 3
	for _, tc := range []struct {
		size  int
		warns int
	}{{c.NumLogicGates(), 1}, {2, 0}} {
		var b strings.Builder
		o := obs.New("r-warn", nil, slog.New(slog.NewJSONHandler(&b, &slog.HandlerOptions{Level: slog.LevelWarn})))
		starts, err := ChainStarts(e, w, cons, tc.size, prm)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Optimize(obs.NewContext(context.Background(), o), starts, prm, nil); err != nil {
			t.Fatal(err)
		}
		warns := 0
		for _, line := range strings.Split(strings.TrimSpace(b.String()), "\n") {
			var rec map[string]any
			if line == "" {
				continue
			}
			if err := json.Unmarshal([]byte(line), &rec); err != nil {
				t.Fatalf("record %q: %v", line, err)
			}
			if rec["level"] == "WARN" && rec["msg"] == "single-module start population: mutation operators inapplicable" {
				warns++
			}
		}
		if warns != tc.warns {
			t.Errorf("module size %d: %d single-module warnings, want %d; log:\n%s", tc.size, warns, tc.warns, b.String())
		}
	}
}
