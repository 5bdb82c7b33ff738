// Package iddqsyn's top-level benchmark harness: one benchmark per table
// and figure of the paper's evaluation, plus the micro-benchmarks behind
// the §3-§4 efficiency claims. Run with
//
//	go test -bench=. -benchmem
//
// The Table 1 benchmarks synthesize full ISCAS85-class circuits per
// iteration and print the regenerated table rows; expect seconds to
// minutes per circuit, matching the paper's "convergence within a few
// hours on a Sun Sparc workstation" at modern CPU speed.
//
// The extension studies benchmark beside their drivers in cmd/iddqstudy;
// the ATPG and diagnosis benchmarks live in internal/atpg and
// internal/diagnose.
package iddqsyn_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"iddqsyn/internal/celllib"
	"iddqsyn/internal/circuits"
	"iddqsyn/internal/core"
	"iddqsyn/internal/estimate"
	"iddqsyn/internal/evolution"
	"iddqsyn/internal/experiments"
	"iddqsyn/internal/obs"
	"iddqsyn/internal/partition"
	"iddqsyn/internal/standard"
)

// benchEvolution keeps the per-iteration cost of the Table 1 benchmarks
// bounded; cmd/table1 runs the full 250-generation budget.
func benchEvolution() evolution.Params {
	p := experiments.Table1DefaultEvolution()
	p.MaxGenerations = 60
	p.StallGenerations = 20
	return p
}

// benchmarkTable1Row regenerates one row of Table 1 per iteration.
func benchmarkTable1Row(b *testing.B, circuit string) {
	b.ReportAllocs()
	prm := benchEvolution()
	var last experiments.Table1Row
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1(context.Background(), experiments.Table1Config{
			Circuits: []string{circuit}, Evolution: &prm,
		})
		if err != nil {
			b.Fatal(err)
		}
		last = rows[0]
	}
	b.ReportMetric(last.AreaOverhead, "areaOverhead%")
	b.ReportMetric(float64(last.Modules), "modules")
	b.Logf("\n%s", experiments.FormatTable1([]experiments.Table1Row{last}))
}

// Table 1: standard vs evolution partitioning, one benchmark per circuit.
func BenchmarkTable1_C1908(b *testing.B) { benchmarkTable1Row(b, "c1908") }
func BenchmarkTable1_C2670(b *testing.B) { benchmarkTable1Row(b, "c2670") }
func BenchmarkTable1_C3540(b *testing.B) { benchmarkTable1Row(b, "c3540") }
func BenchmarkTable1_C5315(b *testing.B) { benchmarkTable1Row(b, "c5315") }
func BenchmarkTable1_C6288(b *testing.B) { benchmarkTable1Row(b, "c6288") }
func BenchmarkTable1_C7552(b *testing.B) { benchmarkTable1Row(b, "c7552") }

// Figure 1: the BIC sensor measurement cycle (vector application, IDDQ
// sensing, PASS/FAIL decision) on the C17 chip model.
func BenchmarkFigure1SensorCycle(b *testing.B) {
	b.ReportAllocs()
	res, err := experiments.Figure1Demo()
	if err != nil {
		b.Fatal(err)
	}
	if res.DefectPass || !res.FaultFreePass {
		b.Fatal("sensor demo misbehaved")
	}
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure1Demo()
		if err != nil {
			b.Fatal(err)
		}
		_ = r
	}
}

// Figure 2: the group-shape experiment on the 2-D cell array. The
// reported metric is the per-sensor area ratio of the column partition
// over the row partition (paper: partition 1, the row grouping, wins).
func BenchmarkFigure2GroupShape(b *testing.B) {
	b.ReportAllocs()
	var ratio float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure2(3, 6)
		if err != nil {
			b.Fatal(err)
		}
		ratio = res.AreaRatio
	}
	b.ReportMetric(ratio, "areaRatio")
}

// Figures 3-5: the C17 evolution trace to the published optimum
// {(1,3,5), (2,4,6)}.
func BenchmarkC17Evolution(b *testing.B) {
	b.ReportAllocs()
	reached := 0
	for i := 0; i < b.N; i++ {
		res, err := experiments.C17Trace(context.Background(), int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		if res.ReachedKnown {
			reached++
		}
	}
	b.ReportMetric(100*float64(reached)/float64(b.N), "optimum%")
}

// §5 convergence claim: generations and evaluations to a stable cost.
func benchmarkConvergence(b *testing.B, circuit string) {
	b.ReportAllocs()
	prm := benchEvolution()
	var gens, evals int
	for i := 0; i < b.N; i++ {
		res, err := experiments.Convergence(context.Background(), circuit, 0, prm)
		if err != nil {
			b.Fatal(err)
		}
		gens, evals = res.Generations, res.Evaluations
	}
	b.ReportMetric(float64(gens), "generations")
	b.ReportMetric(float64(evals), "evaluations")
}

func BenchmarkEvolutionConvergence_C432(b *testing.B)  { benchmarkConvergence(b, "c432") }
func BenchmarkEvolutionConvergence_C880(b *testing.B)  { benchmarkConvergence(b, "c880") }
func BenchmarkEvolutionConvergence_C1908(b *testing.B) { benchmarkConvergence(b, "c1908") }

// §4 ablations: the design choices DESIGN.md calls out.
func BenchmarkAblationMonteCarlo(b *testing.B) {
	b.ReportAllocs()
	prm := benchEvolution()
	var res *experiments.AblationResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.AblateMonteCarlo(context.Background(), "c880", prm)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Variant/res.Baseline, "costRatioNoMC")
}

func BenchmarkAblationLifetime(b *testing.B) {
	b.ReportAllocs()
	prm := benchEvolution()
	var res *experiments.AblationResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.AblateLifetime(context.Background(), "c880", prm)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Variant/res.Baseline, "costRatioImmortal")
}

// §4.2 incremental cost evaluation ablation: cost re-evaluation after one
// mutation, incremental (only touched modules recomputed) vs from-scratch
// partition construction.
func BenchmarkIncrementalCost(b *testing.B) {
	b.ReportAllocs()
	p := mutatedPartition(b)
	rng := rand.New(rand.NewSource(7))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := p.Clone()
		moveOneGate(b, q, rng)
		_ = q.Cost()
		q.Release() // as the generation loop releases every unselected descendant
	}
}

func BenchmarkFullRecomputeCost(b *testing.B) {
	b.ReportAllocs()
	p := mutatedPartition(b)
	rng := rand.New(rand.NewSource(7))
	e, w, cons := p.E, p.W, p.Cons
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := p.Clone()
		moveOneGate(b, q, rng)
		fresh, err := partition.New(e, q.Groups(), w, cons)
		if err != nil {
			b.Fatal(err)
		}
		_ = fresh.Cost()
	}
}

// BenchmarkMoveDelta is the mutation operator's unit of work on a coarse
// partition: one boundary gate moved into a connected module, then Cost().
// c1908 is standard-partitioned at its estimated module size, so the two
// touched modules are as large as the default sizing makes them and the
// op's cost is dominated by how their estimator terms are updated.
func BenchmarkMoveDelta(b *testing.B) {
	b.ReportAllocs()
	e, _ := estimatorFixture(b)
	w, cons := partition.PaperWeights(), partition.DefaultConstraints()
	groups := standard.StandardPartition(e, standard.EstimateModuleSize(e, w, cons))
	p, err := partition.New(e, groups, w, cons)
	if err != nil {
		b.Fatal(err)
	}
	from, to := moveBackAndForth(b, p)
	b.ReportMetric(float64(p.ModuleSize(from)+p.ModuleSize(to))/2, "gates/module")
}

// BenchmarkFinishModule_C1908 is module finish alone: the float terms of
// one c1908 standard module at the estimated module size, from S(M) and
// n(t) the caller holds, as a partition does after every move.
func BenchmarkFinishModule_C1908(b *testing.B) {
	b.ReportAllocs()
	e, _ := estimatorFixture(b)
	w, cons := partition.PaperWeights(), partition.DefaultConstraints()
	gates := standard.StandardPartition(e, standard.EstimateModuleSize(e, w, cons))[0]
	sep, act := e.ModuleCounts(gates)
	b.ReportMetric(float64(len(gates)), "gates/module")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = e.FinishModule(gates, sep, act)
	}
}

// BenchmarkChainStartPartition_C1908 and _C2670 time drawing the gate
// groups of one §4.2 start partition at the circuit's estimated module
// size. Every synthesis draws μ = 8 of them one after another from one
// random stream before the first generation, and counts their S(M) and
// n(t) meanwhile on the other cores (BenchmarkStartPopulation_C7552Size8).
func BenchmarkChainStartPartition_C1908(b *testing.B) { benchmarkChainStart(b, "c1908") }
func BenchmarkChainStartPartition_C2670(b *testing.B) { benchmarkChainStart(b, "c2670") }

func benchmarkChainStart(b *testing.B, name string) {
	b.ReportAllocs()
	a, err := celllib.Annotate(circuits.MustISCAS85Like(name), celllib.Default())
	if err != nil {
		b.Fatal(err)
	}
	e := estimate.New(a, estimate.DefaultParams())
	size := standard.EstimateModuleSize(e, partition.PaperWeights(), partition.DefaultConstraints())
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = standard.ChainStartPartition(a.Circuit, size, rng)
	}
	b.ReportMetric(float64(size), "size")
}

// BenchmarkStartPopulation_C7552Size8 is the start population as a
// synthesis builds it on c7552 at module size 8 (~590 modules per start):
// evolution.ChainStarts' μ = 8 chain-start draws and their partitions'
// S(M) and n(t) counts, on every core. Each iteration draws from a fresh
// seed.
func BenchmarkStartPopulation_C7552Size8(b *testing.B) {
	b.ReportAllocs()
	a, err := celllib.Annotate(circuits.MustISCAS85Like("c7552"), celllib.Default())
	if err != nil {
		b.Fatal(err)
	}
	e := estimate.New(a, estimate.DefaultParams())
	prm := evolution.DefaultParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prm.Seed = int64(i + 1)
		if _, err := evolution.ChainStarts(e, partition.PaperWeights(), partition.DefaultConstraints(), 8, prm); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBICDelayRepropagate is the same boundary move plus Cost() on
// c7552 at module size 8 (~440 modules), where the touched modules are a
// small share of the circuit. It reports how many gates' arrival times the
// incremental D_BIC sweep recomputes per evaluation.
func BenchmarkBICDelayRepropagate(b *testing.B) {
	b.ReportAllocs()
	a, err := celllib.Annotate(circuits.MustISCAS85Like("c7552"), celllib.Default())
	if err != nil {
		b.Fatal(err)
	}
	o := obs.New("bench", nil, nil)
	e := estimate.New(a, estimate.DefaultParams()).ForRun(o, nil)
	p, err := partition.New(e, standard.StandardPartition(e, 8),
		partition.PaperWeights(), partition.DefaultConstraints())
	if err != nil {
		b.Fatal(err)
	}
	sweeps, gates := o.Counter(estimate.MetricBICDelaySweeps), o.Counter(estimate.MetricBICDelayGates)
	p.Cost() // the first evaluation sweeps every gate
	s0, g0 := sweeps.Value(), gates.Value()
	moveBackAndForth(b, p)
	if n := sweeps.Value() - s0; n > 0 {
		b.ReportMetric(float64(gates.Value()-g0)/float64(n), "gates/eval")
	}
}

// BenchmarkDescendant_C7552 is one evolution descendant on c7552 at module
// size 8: Clone an evaluated parent, move one boundary gate into a
// connected module, Cost() the clone and Release it. Unlike
// BenchmarkBICDelayRepropagate, which moves one partition back and forth,
// it pays for what the descendant loop copies: the module list (one
// pointer per module), the gate→module index's page pointers and the
// pages the move writes, and the two replacement module records. The
// evaluation sweeps its arrival times and delays in pooled scratch, which
// Release returns, as the generation loop does for every descendant it
// does not select; only a descendant that is cloned in turn settles
// pages of its own.
func BenchmarkDescendant_C7552(b *testing.B) {
	b.ReportAllocs()
	p := evaluatedC7552(b)
	rng := rand.New(rand.NewSource(7))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := p.Clone()
		moveOneGate(b, q, rng)
		_ = q.Cost()
		q.Release() // as the generation loop releases every unselected descendant
	}
}

// BenchmarkClone_C7552 is the partition clone layer alone: Clone of an
// evaluated c7552 partition at module size 8 (~440 modules), the copy
// every descendant starts with. Its B/op is what a clone copies. The
// clones go to cloneSink so that, as in the descendant loop, they reach
// the heap.
func BenchmarkClone_C7552(b *testing.B) {
	b.ReportAllocs()
	p := evaluatedC7552(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cloneSink = p.Clone()
	}
}

var cloneSink *partition.Partition

// BenchmarkSynthesize_C7552Size8 is one synthesis as iddqbench's
// fine-c7552 workload runs it: c7552 at module size 8 (~590 modules), 60
// generations with the stall window equal to the budget, seed 1. It
// reports the share of descendants whose D_BIC sweep the cost bound
// spared (evolution.pruned over evolution.evaluations).
func BenchmarkSynthesize_C7552Size8(b *testing.B) {
	b.ReportAllocs()
	c := circuits.MustISCAS85Like("c7552")
	prm := evolution.DefaultParams()
	prm.MaxGenerations, prm.StallGenerations = 60, 60
	o := obs.New("bench", nil, nil)
	ctx := obs.NewContext(context.Background(), o)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.SynthesizeContext(ctx, c, core.Options{Evolution: &prm, ModuleSize: 8}); err != nil {
			b.Fatal(err)
		}
	}
	counters := o.Registry().Snapshot().Counters
	b.ReportMetric(float64(counters[evolution.MetricPruned])/float64(counters[evolution.MetricEvaluations]), "pruned/eval")
}

// evaluatedC7552 returns c7552's standard partition at module size 8,
// evaluated as every selected parent of the descendant loop is.
func evaluatedC7552(b *testing.B) *partition.Partition {
	b.Helper()
	a, err := celllib.Annotate(circuits.MustISCAS85Like("c7552"), celllib.Default())
	if err != nil {
		b.Fatal(err)
	}
	e := estimate.New(a, estimate.DefaultParams())
	p, err := partition.New(e, standard.StandardPartition(e, 8),
		partition.PaperWeights(), partition.DefaultConstraints())
	if err != nil {
		b.Fatal(err)
	}
	p.Cost()
	return p
}

// moveBackAndForth times one boundary gate moved into a connected module,
// then Cost(), b.N times. Iterations alternate the gate's direction, so
// every op is the same move on the same two modules and no clone is timed.
// It returns the two modules.
func moveBackAndForth(b *testing.B, p *partition.Partition) (from, to int) {
	b.Helper()
	gate := -1
	for mi := 0; mi < p.NumModules() && gate < 0; mi++ {
		if p.ModuleSize(mi) < 2 {
			continue
		}
		for _, g := range p.BoundaryGates(mi) {
			if targets := p.ConnectedModules(g); len(targets) > 0 {
				gate, from, to = g, mi, targets[0]
				break
			}
		}
	}
	if gate < 0 {
		b.Fatal("no boundary move")
	}
	moved := []int{gate}
	p.Cost() // warm the caches
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.MoveGates(moved, from, to); err != nil {
			b.Fatal(err)
		}
		from, to = to, from
		_ = p.Cost()
	}
	return from, to
}

func mutatedPartition(b *testing.B) *partition.Partition {
	b.Helper()
	c := circuits.MustISCAS85Like("c1908")
	a, err := celllib.Annotate(c, celllib.Default())
	if err != nil {
		b.Fatal(err)
	}
	e := estimate.New(a, estimate.DefaultParams())
	groups := standard.StandardPartition(e, 220)
	p, err := partition.New(e, groups, partition.PaperWeights(), partition.DefaultConstraints())
	if err != nil {
		b.Fatal(err)
	}
	p.Cost() // warm the caches
	return p
}

func moveOneGate(b *testing.B, p *partition.Partition, rng *rand.Rand) {
	b.Helper()
	for attempt := 0; attempt < 16; attempt++ {
		from := rng.Intn(p.NumModules())
		boundary := p.BoundaryGates(from)
		if len(boundary) == 0 {
			continue
		}
		g := boundary[rng.Intn(len(boundary))]
		targets := p.ConnectedModules(g)
		if len(targets) == 0 {
			continue
		}
		if _, err := p.MoveGates([]int{g}, from, targets[rng.Intn(len(targets))]); err == nil {
			return
		}
	}
	b.Fatal("no legal move found")
}

// §3 estimator micro-benchmarks: the quantities recomputed inside the
// evolution loop.
func estimatorFixture(b *testing.B) (*estimate.Estimator, [][]int) {
	b.Helper()
	c := circuits.MustISCAS85Like("c1908")
	a, err := celllib.Annotate(c, celllib.Default())
	if err != nil {
		b.Fatal(err)
	}
	e := estimate.New(a, estimate.DefaultParams())
	groups := standard.StandardPartition(e, 220)
	return e, groups
}

// BenchmarkEstimatorBuild_C7552 times estimate.New on the largest
// benchmark circuit: transition-time sets, the nominal delay sweep and the
// per-gate ρ-hop neighbourhood table. Every synthesis builds one.
func BenchmarkEstimatorBuild_C7552(b *testing.B) {
	b.ReportAllocs()
	a, err := celllib.Annotate(circuits.MustISCAS85Like("c7552"), celllib.Default())
	if err != nil {
		b.Fatal(err)
	}
	p := estimate.DefaultParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = estimate.New(a, p)
	}
}

func BenchmarkEstimatorsModuleEval(b *testing.B) {
	b.ReportAllocs()
	e, groups := estimatorFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = e.EvalModule(groups[i%len(groups)])
	}
}

func BenchmarkEstimatorsMaxCurrent(b *testing.B) {
	b.ReportAllocs()
	e, groups := estimatorFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = e.TS.MaxCurrent(e.A, groups[i%len(groups)])
	}
}

func BenchmarkEstimatorsSeparation(b *testing.B) {
	b.ReportAllocs()
	e, groups := estimatorFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = e.SeparationModule(groups[i%len(groups)])
	}
}

func BenchmarkEstimatorsBICDelay(b *testing.B) {
	b.ReportAllocs()
	e, groups := estimatorFixture(b)
	mods := make([]*estimate.Module, len(groups))
	moduleOf := make([]int, e.A.Circuit.NumGates())
	for mi, grp := range groups {
		mods[mi] = e.EvalModule(grp)
		for _, g := range grp {
			moduleOf[g] = mi
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = e.BICDelay(moduleOf, mods)
	}
}

// Sanity: the benchmark fixtures print the environment once.
func Example_fixtures() {
	c := circuits.C17()
	fmt.Println(c)
	// Output: c17: 5 inputs, 2 outputs, 6 gates, depth 3
}

// Paper studies beyond Table 1 (see EXPERIMENTS.md).

// Weight sweep: the Speed-Area-Testability design-space exploration of §2.
func BenchmarkWeightSweep(b *testing.B) {
	b.ReportAllocs()
	prm := benchEvolution()
	var points []experiments.WeightSweepPoint
	for i := 0; i < b.N; i++ {
		var err error
		points, err = experiments.WeightSweep(context.Background(), "c432", prm)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Logf("\n%s", experiments.FormatWeightSweep(points))
}

// Estimator pessimism: the §3.1 upper-bound guarantee, measured.
func BenchmarkEstimatorPessimism(b *testing.B) {
	b.ReportAllocs()
	prm := benchEvolution()
	var worst float64
	for i := 0; i < b.N; i++ {
		points, err := experiments.Pessimism(context.Background(), "c432", prm)
		if err != nil {
			b.Fatal(err)
		}
		worst = 0
		for _, p := range points {
			if p.Ratio > worst {
				worst = p.Ratio
			}
		}
	}
	b.ReportMetric(worst, "worstPessimismX")
}
