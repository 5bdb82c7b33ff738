package evolution

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"iddqsyn/internal/celllib"
	"iddqsyn/internal/circuit"
	"iddqsyn/internal/circuits"
	"iddqsyn/internal/estimate"
	"iddqsyn/internal/partition"
	"iddqsyn/internal/standard"
)

func estimatorFor(t *testing.T, c *circuit.Circuit) *estimate.Estimator {
	t.Helper()
	a, err := celllib.Annotate(c, celllib.Default())
	if err != nil {
		t.Fatal(err)
	}
	return estimate.New(a, estimate.DefaultParams())
}

func TestParamsValidate(t *testing.T) {
	bad := []Params{
		{Mu: 0, Lambda: 1, Chi: 0, Omega: 1, MaxMove: 1, Epsilon: 1, MaxGenerations: 1, StallGenerations: 1},
		{Mu: 1, Lambda: 0, Chi: 0, Omega: 1, MaxMove: 1, Epsilon: 1, MaxGenerations: 1, StallGenerations: 1},
		{Mu: 1, Lambda: 1, Chi: -1, Omega: 1, MaxMove: 1, Epsilon: 1, MaxGenerations: 1, StallGenerations: 1},
		{Mu: 1, Lambda: 1, Chi: 0, Omega: 0, MaxMove: 1, Epsilon: 1, MaxGenerations: 1, StallGenerations: 1},
		{Mu: 1, Lambda: 1, Chi: 0, Omega: 1, MaxMove: 0, Epsilon: 1, MaxGenerations: 1, StallGenerations: 1},
		{Mu: 1, Lambda: 1, Chi: 0, Omega: 1, MaxMove: 1, Epsilon: 0, MaxGenerations: 1, StallGenerations: 1},
		{Mu: 1, Lambda: 1, Chi: 0, Omega: 1, MaxMove: 1, Epsilon: 1, MaxGenerations: 0, StallGenerations: 1},
		{Mu: 1, Lambda: 1, Chi: 0, Omega: 1, MaxMove: 1, Epsilon: 1, MaxGenerations: 1, StallGenerations: 0},
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

func TestOptimizeEmptyPopulation(t *testing.T) {
	if _, err := Optimize(context.Background(), nil, DefaultParams(), nil); err == nil {
		t.Error("want error for empty start population")
	}
}

func TestRunC17FindsPaperOptimum(t *testing.T) {
	// §4.3: the optimum partition for C17 at two modules is
	// {(1,3,5), (2,4,6)}. Verify the evolution algorithm's result
	// reaches the cost of that partition (the optimum may be hit in a
	// symmetric form).
	e := estimatorFor(t, circuits.C17())
	w := partition.PaperWeights()
	cons := partition.DefaultConstraints()
	prm := DefaultParams()
	prm.Seed = 3
	res, err := runChain(context.Background(), e, w, cons, prm, nil)
	if err != nil {
		t.Fatal(err)
	}
	opt := paperOptimum(t, e, w, cons)
	if res.BestCost > opt.Cost()+1e-9 {
		t.Errorf("evolution cost %.9g worse than paper optimum %.9g\nbest: %v",
			res.BestCost, opt.Cost(), res.Best.Groups())
	}
	if !res.Best.Feasible() {
		t.Error("result must be feasible")
	}
	if err := res.Best.Verify(); err != nil {
		t.Errorf("result invariants: %v", err)
	}
}

func paperOptimum(t *testing.T, e *estimate.Estimator, w partition.Weights, cons partition.Constraints) *partition.Partition {
	t.Helper()
	c := e.A.Circuit
	id := func(n string) int {
		g, ok := c.GateByName(n)
		if !ok {
			t.Fatalf("gate %s missing", n)
		}
		return g.ID
	}
	p, err := partition.New(e, [][]int{
		{id("g1"), id("g3"), id("g5")},
		{id("g2"), id("g4"), id("g6")},
	}, w, cons)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestOptimizeImprovesOverStart(t *testing.T) {
	c := circuits.MustISCAS85Like("c432")
	e := estimatorFor(t, c)
	w := partition.PaperWeights()
	cons := partition.DefaultConstraints()
	// Deliberately fine-grained starts (size 8) leave evolution real work:
	// merging towards the optimum granularity.
	const size = 8
	rng := rand.New(rand.NewSource(5))
	var starts []*partition.Partition
	var startCost float64 = math.Inf(1)
	for i := 0; i < 4; i++ {
		p, err := partition.New(e, standard.ChainStartPartition(c, size, rng), w, cons)
		if err != nil {
			t.Fatal(err)
		}
		if cst := p.Cost(); p.Feasible() && cst < startCost {
			startCost = cst
		}
		starts = append(starts, p)
	}
	prm := DefaultParams()
	prm.MaxGenerations = 60
	prm.StallGenerations = 20
	res, err := Optimize(context.Background(), starts, prm, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.BestCost >= startCost {
		t.Errorf("no improvement: best %.6g vs start %.6g", res.BestCost, startCost)
	}
	if err := res.Best.Verify(); err != nil {
		t.Errorf("invariants: %v", err)
	}
	if !res.Best.Feasible() {
		t.Error("result must satisfy Γ")
	}
	t.Logf("c432: start %.6g -> best %.6g in %d generations (%d evaluations)",
		startCost, res.BestCost, res.Generations, res.Evaluations)
}

func TestOptimizeDeterministic(t *testing.T) {
	e := estimatorFor(t, circuits.C17())
	w := partition.PaperWeights()
	cons := partition.DefaultConstraints()
	prm := DefaultParams()
	prm.MaxGenerations = 30
	r1, err := runChain(context.Background(), e, w, cons, prm, nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := runChain(context.Background(), e, w, cons, prm, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r1.BestCost != r2.BestCost || r1.Generations != r2.Generations {
		t.Errorf("nondeterministic: %.9g/%d vs %.9g/%d",
			r1.BestCost, r1.Generations, r2.BestCost, r2.Generations)
	}
}

func TestHistoryMonotone(t *testing.T) {
	e := estimatorFor(t, circuits.MustISCAS85Like("c432"))
	prm := DefaultParams()
	prm.MaxGenerations = 40
	prm.StallGenerations = 40
	res, err := runChain(context.Background(), e, partition.PaperWeights(), partition.DefaultConstraints(), prm, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.History); i++ {
		if res.History[i] > res.History[i-1]+1e-12 {
			t.Fatalf("best-so-far cost increased at generation %d: %g -> %g",
				i, res.History[i-1], res.History[i])
		}
	}
}

func TestTraceCalledEveryGeneration(t *testing.T) {
	e := estimatorFor(t, circuits.C17())
	prm := DefaultParams()
	prm.MaxGenerations = 10
	prm.StallGenerations = 10
	calls := 0
	lastGen := 0
	_, err := runChain(context.Background(), e, partition.PaperWeights(), partition.DefaultConstraints(), prm,
		&Control{Trace: func(gen int, best *partition.Partition, bestCost float64) {
			calls++
			if gen != lastGen+1 {
				t.Errorf("generation jumped %d -> %d", lastGen, gen)
			}
			lastGen = gen
			if best == nil || math.IsInf(bestCost, 1) {
				t.Error("trace with no feasible best")
			}
		}})
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Error("trace never called")
	}
}

func TestMutatePreservesInvariants(t *testing.T) {
	e := estimatorFor(t, circuits.MustISCAS85Like("c432"))
	rng := rand.New(rand.NewSource(9))
	groups := standard.ChainStartPartition(e.A.Circuit, 10, rng)
	p, err := partition.New(e, groups, partition.PaperWeights(), partition.DefaultConstraints())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		q := p.Clone()
		if mutate(q, 4, rng, new(moveScratch)) {
			if err := q.Verify(); err != nil {
				t.Fatalf("iteration %d: %v", i, err)
			}
			p = q
		}
		if p.NumModules() < 2 {
			break
		}
	}
}

func TestMonteCarloPreservesInvariants(t *testing.T) {
	e := estimatorFor(t, circuits.MustISCAS85Like("c432"))
	rng := rand.New(rand.NewSource(10))
	groups := standard.ChainStartPartition(e.A.Circuit, 10, rng)
	p, err := partition.New(e, groups, partition.PaperWeights(), partition.DefaultConstraints())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		q := p.Clone()
		if monteCarlo(q, rng, new(moveScratch)) {
			if err := q.Verify(); err != nil {
				t.Fatalf("iteration %d: %v", i, err)
			}
			p = q
		}
		if p.NumModules() < 2 {
			break
		}
	}
}

func TestMutateSingleModuleNoop(t *testing.T) {
	e := estimatorFor(t, circuits.C17())
	p, err := partition.New(e, [][]int{e.A.Circuit.LogicGates()},
		partition.PaperWeights(), partition.DefaultConstraints())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	if mutate(p.Clone(), 3, rng, new(moveScratch)) {
		t.Error("mutation of a single-module partition must be a no-op")
	}
	if monteCarlo(p.Clone(), rng, new(moveScratch)) {
		t.Error("Monte Carlo on a single-module partition must be a no-op")
	}
}

func TestAdaptStepStaysPositive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 1000; i++ {
		if m := adaptStep(1, 3.0, rng); m < 1 {
			t.Fatalf("step width %d < 1", m)
		}
	}
}

func TestSelectBest(t *testing.T) {
	mk := func(c float64) *individual { return &individual{cost: c} }
	pool := []*individual{mk(5), mk(1), mk(3), mk(2), mk(4)}
	out := selectBest(pool, 3)
	got := []float64{out[0].cost, out[1].cost, out[2].cost}
	sort.Float64s(got)
	if got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("selectBest = %v", got)
	}
	if len(selectBest(pool, 10)) != 5 {
		t.Error("selectBest with mu > len must return all")
	}
}

func TestInfeasibleStartsRecover(t *testing.T) {
	// A start partition violating the discriminability constraint (one
	// huge module) must be repaired by evolution: descendants that split
	// current across more modules become feasible and dominate.
	c := circuits.MustISCAS85Like("c432")
	e := estimatorFor(t, c)
	w := partition.PaperWeights()
	// Tighten the threshold so a ~40-gate module is infeasible but a
	// ~20-gate module is fine.
	cons := partition.Constraints{MinDiscriminability: 10}
	p := estimate.DefaultParams()
	var leakSum float64
	for _, g := range c.LogicGates() {
		leakSum += e.A.LeakMax[g]
	}
	leakAvg := leakSum / float64(c.NumLogicGates())
	p.IDDQth = 25 * leakAvg * cons.MinDiscriminability // cap ≈ 25 gates
	e2 := estimate.New(e.A, p)

	// The paper's operators never create modules (K only shrinks when a
	// module empties), so the infeasible start must already have enough
	// modules: take a fine chain partition and merge its first chains
	// into one oversized module that violates the ≈25-gate cap.
	rng := rand.New(rand.NewSource(4))
	chains := standard.ChainStartPartition(c, 8, rng)
	var big []int
	for len(big) < 60 && len(chains) > 1 {
		big = append(big, chains[0]...)
		chains = chains[1:]
	}
	groups := append([][]int{big}, chains...)
	start, err := partition.New(e2, groups, w, cons)
	if err != nil {
		t.Fatal(err)
	}
	if start.Feasible() {
		t.Fatal("start must be infeasible for this test to mean anything")
	}
	prm := DefaultParams()
	prm.MaxGenerations = 150
	prm.StallGenerations = 60
	res, err := Optimize(context.Background(), []*partition.Partition{start}, prm, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Best.Feasible() {
		t.Error("evolution failed to reach feasibility from an infeasible start")
	}
}

// Descendant evaluation on four cores must be bit-identical to one core
// (mutation stays on one rand stream) and race-free.
func TestParallelEvaluationMatchesSequential(t *testing.T) {
	e := estimatorFor(t, circuits.MustISCAS85Like("c432"))
	w := partition.PaperWeights()
	cons := partition.DefaultConstraints()
	prm := DefaultParams()
	prm.MaxGenerations = 25
	prm.StallGenerations = 25

	run := func(procs int) *Result {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		starts, err := ChainStarts(e, w, cons, 8, prm)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Optimize(context.Background(), starts, prm, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq := run(1)
	par := run(4)
	if seq.BestCost != par.BestCost || seq.Evaluations != par.Evaluations {
		t.Errorf("parallel run diverged: %.9g/%d vs %.9g/%d",
			seq.BestCost, seq.Evaluations, par.BestCost, par.Evaluations)
	}
	if err := par.Best.Verify(); err != nil {
		t.Errorf("parallel result invariants: %v", err)
	}
}

func TestDescendantAllocs(t *testing.T) {
	// Regression guard for the hot-loop allocation fixes (moveScratch
	// buffers, partition cost pools, lazy circuit caches): one descendant
	// step — clone the parent, mutate it, evaluate its cost, release it —
	// must stay allocation-lean once the caches and pools are warm. The
	// bound has headroom for pool refills after a GC, but a reintroduced
	// per-move or per-evaluation allocation blows well past it.
	e := estimatorFor(t, circuits.C17())
	p := paperOptimum(t, e, partition.PaperWeights(), partition.DefaultConstraints())
	rng := rand.New(rand.NewSource(7))
	var sc moveScratch
	step := func() {
		child := p.Clone()
		mutate(child, 2, rng, &sc)
		child.PenalisedCost()
		child.Release() // as the generation loop releases every unselected descendant
	}
	for i := 0; i < 32; i++ {
		step() // warm the lazy caches and scratch pools
	}
	avg := testing.AllocsPerRun(200, step)
	t.Logf("descendant step: %.1f allocs/run", avg)
	const maxAllocs = 30
	if avg > maxAllocs {
		t.Errorf("descendant step allocates %.1f times per run, want <= %d — a hot-loop allocation crept back in", avg, maxAllocs)
	}
}
