package anneal

import (
	"context"
	"errors"
	"strings"

	"math/rand"
	"testing"

	"iddqsyn/internal/celllib"
	"iddqsyn/internal/chaos"
	"iddqsyn/internal/circuits"
	"iddqsyn/internal/estimate"
	"iddqsyn/internal/partition"
	"iddqsyn/internal/standard"
)

func startPartition(t *testing.T, name string, size int) *partition.Partition {
	t.Helper()
	c := circuits.MustISCAS85Like(name)
	a, err := celllib.Annotate(c, celllib.Default())
	if err != nil {
		t.Fatal(err)
	}
	e := estimate.New(a, estimate.DefaultParams())
	groups := standard.ChainStartPartition(c, size, rand.New(rand.NewSource(1)))
	p, err := partition.New(e, groups, partition.PaperWeights(), partition.DefaultConstraints())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestParamsValidate(t *testing.T) {
	bad := []Params{
		{Cooling: 0, MovesPerEpoch: 1, MinTemp: 1, MaxMoves: 1},
		{Cooling: 1, MovesPerEpoch: 1, MinTemp: 1, MaxMoves: 1},
		{Cooling: 0.9, MovesPerEpoch: 0, MinTemp: 1, MaxMoves: 1},
		{Cooling: 0.9, MovesPerEpoch: 1, MinTemp: 0, MaxMoves: 1},
		{Cooling: 0.9, MovesPerEpoch: 1, MinTemp: 1, MaxMoves: 0},
		{Cooling: 0.9, MovesPerEpoch: 1, MinTemp: 1, MaxMoves: 1, InitialTemp: -1},
	}
	for i, p := range bad {
		if err := p.validate(); err == nil {
			t.Errorf("case %d: want validation error", i)
		}
	}
	if err := DefaultParams().validate(); err != nil {
		t.Errorf("DefaultParams invalid: %v", err)
	}
}

func TestAnnealImproves(t *testing.T) {
	start := startPartition(t, "c432", 8)
	startCost := start.Cost()
	prm := DefaultParams()
	prm.MaxMoves = 4000
	res, err := Anneal(context.Background(), start, prm)
	if err != nil {
		t.Fatal(err)
	}
	if res.BestCost >= startCost {
		t.Errorf("no improvement: %g -> %g", startCost, res.BestCost)
	}
	if err := res.Best.Verify(); err != nil {
		t.Errorf("invariants: %v", err)
	}
	if res.Accepted == 0 || res.Moves == 0 {
		t.Error("no moves recorded")
	}
}

func TestAnnealDoesNotMutateStart(t *testing.T) {
	start := startPartition(t, "c432", 8)
	before := start.Cost()
	k := start.NumModules()
	prm := DefaultParams()
	prm.MaxMoves = 500
	if _, err := Anneal(context.Background(), start, prm); err != nil {
		t.Fatal(err)
	}
	if start.Cost() != before || start.NumModules() != k {
		t.Error("Anneal mutated its start partition")
	}
}

func TestAnnealDeterministic(t *testing.T) {
	prm := DefaultParams()
	prm.MaxMoves = 1500
	r1, err := Anneal(context.Background(), startPartition(t, "c432", 8), prm)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Anneal(context.Background(), startPartition(t, "c432", 8), prm)
	if err != nil {
		t.Fatal(err)
	}
	if r1.BestCost != r2.BestCost || r1.Accepted != r2.Accepted {
		t.Error("annealing must be deterministic for a fixed seed")
	}
}

func TestAnnealRespectsBudget(t *testing.T) {
	prm := DefaultParams()
	prm.MaxMoves = 100
	res, err := Anneal(context.Background(), startPartition(t, "c432", 8), prm)
	if err != nil {
		t.Fatal(err)
	}
	if res.Moves > 100 {
		t.Errorf("moves = %d, budget 100", res.Moves)
	}
}

func TestAnnealSingleModule(t *testing.T) {
	// A single-module partition has no moves: the result is the start.
	c := circuits.C17()
	a, err := celllib.Annotate(c, celllib.Default())
	if err != nil {
		t.Fatal(err)
	}
	e := estimate.New(a, estimate.DefaultParams())
	p, err := partition.New(e, [][]int{c.LogicGates()},
		partition.PaperWeights(), partition.DefaultConstraints())
	if err != nil {
		t.Fatal(err)
	}
	prm := DefaultParams()
	prm.MaxMoves = 50
	res, err := Anneal(context.Background(), p, prm)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted != 0 {
		t.Error("no move should be possible")
	}
	if res.BestCost != p.Cost() {
		t.Error("best must equal the start")
	}
}

func TestHillClimbImproves(t *testing.T) {
	start := startPartition(t, "c432", 8)
	startCost := start.Cost()
	res, err := HillClimb(context.Background(), start, 3000, 300, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.BestCost >= startCost {
		t.Errorf("no improvement: %g -> %g", startCost, res.BestCost)
	}
	if err := res.Best.Verify(); err != nil {
		t.Errorf("invariants: %v", err)
	}
}

func TestHillClimbNeverAcceptsWorse(t *testing.T) {
	start := startPartition(t, "c432", 8)
	res, err := HillClimb(context.Background(), start, 2000, 200, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Hill climbing's best IS its current: re-evaluating the returned
	// partition must give the recorded cost.
	if got := res.Best.Cost(); got != res.BestCost {
		t.Errorf("best cost %g, partition says %g", res.BestCost, got)
	}
}

func TestHillClimbBadArgs(t *testing.T) {
	start := startPartition(t, "c432", 8)
	if _, err := HillClimb(context.Background(), start, 0, 10, 1); err == nil {
		t.Error("want error for zero budget")
	}
	if _, err := HillClimb(context.Background(), start, 10, 0, 1); err == nil {
		t.Error("want error for zero patience")
	}
}

// The comparison the experiments run: annealing with a decent budget
// should land in the same cost region as hill climbing or better —
// and both must produce valid, feasible partitions.
func TestOptimizersProduceFeasible(t *testing.T) {
	start := startPartition(t, "c432", 8)
	prm := DefaultParams()
	prm.MaxMoves = 3000
	sa, err := Anneal(context.Background(), start, prm)
	if err != nil {
		t.Fatal(err)
	}
	hc, err := HillClimb(context.Background(), start, 3000, 300, 1)
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]*Result{"anneal": sa, "hillclimb": hc} {
		if !r.Best.Feasible() {
			t.Errorf("%s: infeasible result", name)
		}
	}
}

// An injected move-loop panic — the same class as an estimator numeric
// guard firing — must be contained into an error that keeps its chain
// (chaos.ErrInjected here), with the best-so-far partition preserved.
func TestInjectedPanicContained(t *testing.T) {
	start := startPartition(t, "c432", 8)
	sched, err := chaos.ParseSchedule("seed=1,after=20,sites=anneal.move.panic")
	if err != nil {
		t.Fatal(err)
	}
	ctx := chaos.NewContext(context.Background(), chaos.New(sched, nil))
	prm := DefaultParams()
	prm.MaxMoves = 4000
	res, aerr := Anneal(ctx, start, prm)
	if aerr == nil {
		t.Fatal("injected panic must surface as an error")
	}
	if !errors.Is(aerr, chaos.ErrInjected) {
		t.Errorf("contained error %v lost chaos.ErrInjected from its chain", aerr)
	}
	if !strings.Contains(aerr.Error(), "panicked") {
		t.Errorf("error %q should say the move loop panicked", aerr)
	}
	if res == nil || res.Best == nil {
		t.Error("containment must keep the best-so-far result")
	}

	// The hill climber shares the containment.
	hres, herr := HillClimb(ctx2(t), start, 4000, 400, 1)
	if herr == nil || !errors.Is(herr, chaos.ErrInjected) {
		t.Errorf("hill climb: err = %v, want wrapped chaos.ErrInjected", herr)
	}
	if hres == nil || hres.Best == nil {
		t.Error("hill climb containment must keep the best-so-far result")
	}
}

// ctx2 builds a fresh one-shot panic injection context (the injector in
// TestInjectedPanicContained has already fired).
func ctx2(t *testing.T) context.Context {
	t.Helper()
	sched, err := chaos.ParseSchedule("seed=1,after=20,sites=anneal.move.panic")
	if err != nil {
		t.Fatal(err)
	}
	return chaos.NewContext(context.Background(), chaos.New(sched, nil))
}
