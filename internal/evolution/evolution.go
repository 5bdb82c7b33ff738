// Package evolution implements the evolution-based optimization algorithm
// of §4: a (μ, λ, χ)-strategy with duplication as recombination, a
// boundary-gate mutation operator, additional high-variance Monte-Carlo
// descendants against local minima, lifetime-limited selection (parents
// older than ω generations are deleted) and self-adaptation of the
// mutation step width m with normal variation ε — the control-parameter
// scheme the paper adapts from Rechenberg and Schwefel [17-19].
//
// The start population's groups are drawn on one random stream, and each
// start's S(M) and n(t) are counted on a free core as soon as it is drawn
// (ChainStarts). Each generation's descendants are evaluated on every
// core, one par.Stream per generation, while the generation loop builds
// the next ones. Selection keeps only the μ cheapest, so a descendant
// whose cost bound (partition.PenalisedCostAbove) already exceeds the μ-th
// cheapest cost known in its generation is not swept for D_BIC: it cannot
// be selected, and its bound stands in for its cost. No result depends on
// which descendants are pruned (state.evaluate).
package evolution

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"

	"iddqsyn/internal/estimate"
	"iddqsyn/internal/obs"
	"iddqsyn/internal/par"
	"iddqsyn/internal/partition"
	"iddqsyn/internal/standard"
)

// Params are the evolution control parameters of §4.2.
type Params struct {
	Mu     int // μ: number of parents
	Lambda int // λ: number of (mutation) children per parent
	Chi    int // χ: number of Monte-Carlo descendants per parent
	Omega  int // ω: maximum lifetime in generations

	MaxMove int     // m: initial maximum number of gates moved per mutation
	Epsilon float64 // ε: standard deviation of the step-width adaptation

	MaxGenerations   int // hard generation budget
	StallGenerations int // stop after this many generations without improvement

	Seed int64
}

// DefaultParams returns a configuration that converges on every benchmark
// circuit of the experiments.
func DefaultParams() Params {
	return Params{
		Mu:               8,
		Lambda:           4,
		Chi:              2,
		Omega:            8,
		MaxMove:          4,
		Epsilon:          1.5,
		MaxGenerations:   400,
		StallGenerations: 40,
		Seed:             1,
	}
}

func (p Params) validate() error {
	switch {
	case p.Mu < 1:
		return fmt.Errorf("evolution: μ must be >= 1")
	case p.Lambda < 1:
		return fmt.Errorf("evolution: λ must be >= 1")
	case p.Chi < 0:
		return fmt.Errorf("evolution: χ must be >= 0")
	case p.Omega < 1:
		return fmt.Errorf("evolution: ω must be >= 1")
	case p.MaxMove < 1:
		return fmt.Errorf("evolution: m must be >= 1")
	case p.Epsilon <= 0:
		return fmt.Errorf("evolution: ε must be positive")
	case p.MaxGenerations < 1:
		return fmt.Errorf("evolution: generation budget must be >= 1")
	case p.StallGenerations < 1:
		return fmt.Errorf("evolution: stall window must be >= 1")
	}
	return nil
}

// Trace receives the best individual after every generation. gen is
// 1-based; best is a snapshot safe to keep.
type Trace func(gen int, best *partition.Partition, bestCost float64)

// Result reports an optimization run.
type Result struct {
	Best        *partition.Partition
	BestCost    float64
	Generations int
	Evaluations int       // descendant cost evaluations
	History     []float64 // best cost per generation

	// Interrupted reports that the run was cancelled (context done) at a
	// generation boundary and Best holds the best-so-far individual rather
	// than a converged one. Err then wraps the context's error;
	// interruption is not a failure, so the optimizer's error return stays
	// nil.
	Interrupted bool
	Err         error
}

// origin tags how an individual entered the population, for the
// acceptance telemetry (it never influences selection).
const (
	originStart uint8 = iota
	originMutation
	originMonteCarlo
)

type individual struct {
	p      *partition.Partition
	cost   float64
	age    int
	m      int // self-adapted step width
	origin uint8
}

// Optimize runs the evolution cycle on an explicit start population
// (ChainStarts builds the §4.2 one). Every start partition must share the
// same estimator, weights and constraints. Infeasible individuals
// (Γ(Π) = 0) are penalised so heavily that any feasible descendant
// dominates them, with the penalty graded by the size of the violation so
// evolution can climb back to feasibility.
//
// The context is checked at every generation boundary: a cancelled run
// returns the best-so-far Result with Interrupted set (and a nil error)
// instead of discarding the work done so far. The run's Obs, fault
// injector and trace span all come from the context (obs.FromContext,
// chaos.FromContext, obs.SpanFromContext). ctl (nil for none) adds the
// per-generation Trace and periodic checkpointing, so a killed run can be
// resumed bit-identically with Resume.
//
// The start population's costs, then each generation's, are evaluated as
// one batch on runtime.GOMAXPROCS(0) goroutines through par.Stream, the
// caller's included; the result is the same bit for bit on any number of
// cores.
func Optimize(ctx context.Context, starts []*partition.Partition, prm Params, ctl *Control) (*Result, error) {
	if err := prm.validate(); err != nil {
		return nil, err
	}
	if len(starts) == 0 {
		return nil, fmt.Errorf("evolution: empty start population")
	}
	src := newCountingSource(prm.Seed)
	s := &state{
		prm:     prm,
		src:     src,
		rng:     rand.New(src),
		res:     &Result{},
		nextGen: 1,
		obs:     newRunObs(obs.FromContext(ctx)),
	}
	s.attachControl(ctx, ctl)
	s.pop = make([]*individual, 0, len(starts))
	for _, st := range starts {
		s.pop = append(s.pop, &individual{p: st, m: prm.MaxMove})
	}
	circuit := starts[0].E.A.Circuit.Name
	s.obs.log.Info("evolution run begin",
		"circuit", circuit,
		"mu", prm.Mu, "lambda", prm.Lambda, "chi", prm.Chi,
		"max_generations", prm.MaxGenerations, "seed", prm.Seed,
		"workers", runtime.GOMAXPROCS(0))
	if singleModule(starts) {
		s.obs.log.Warn("single-module start population: mutation operators inapplicable",
			"circuit", circuit, "starts", len(starts))
	}
	return s.run(ctx, ctl)
}

// singleModule reports whether every start partition is a single module.
// Both operators move gates between modules, so such a run produces no
// descendant: its result is the best start.
func singleModule(starts []*partition.Partition) bool {
	for _, p := range starts {
		if p.NumModules() >= 2 {
			return false
		}
	}
	return true
}

// moveScratch holds the reusable buffers of the mutation operators.
// Mutation is sequential (one rand stream), so one scratch per generation
// loop serves every descendant; the buffers never escape a single
// mutate/monteCarlo call.
type moveScratch struct {
	gates   []int  // boundary gates / module copy for shuffling
	targets []int  // legal target modules of one gate
	one     [1]int // single-gate argument for MoveGates
}

// mutate applies the §4.2 mutation: a random module M_start is selected,
// its boundary gates determined, m_move ∈ {1, ..., min(m, m_boundary)}
// gates chosen uniformly, and each moved into a (random, if several)
// module it is connected with. Returns false if no move was possible.
//
//lint:hotpath runs once per descendant per generation; its partition edits must reuse the moveScratch buffers
func mutate(p *partition.Partition, m int, rng *rand.Rand, sc *moveScratch) bool {
	if p.NumModules() < 2 {
		return false
	}
	// Try a few modules: some have no boundary gates with legal targets.
	for attempt := 0; attempt < 8; attempt++ {
		src := rng.Intn(p.NumModules())
		boundary := p.AppendBoundaryGates(sc.gates[:0], src)
		sc.gates = boundary[:0]
		if len(boundary) == 0 {
			continue
		}
		max := m
		if len(boundary) < max {
			max = len(boundary)
		}
		mMove := 1 + rng.Intn(max)
		//lint:ignore hotalloc non-escaping swap closure passed to rng.Shuffle, stack-allocated
		rng.Shuffle(len(boundary), func(i, j int) { boundary[i], boundary[j] = boundary[j], boundary[i] })
		moved := false
		for _, g := range boundary[:mMove] {
			from := p.ModuleOf(g)
			targets := p.AppendConnectedModules(sc.targets[:0], g)
			sc.targets = targets[:0]
			if len(targets) == 0 {
				continue
			}
			to := targets[rng.Intn(len(targets))]
			sc.one[0] = g
			if _, err := p.MoveGates(sc.one[:], from, to); err == nil {
				moved = true
			}
			if p.NumModules() < 2 {
				break
			}
		}
		if moved {
			return true
		}
	}
	return false
}

// monteCarlo applies the §4.2 high-variance operator: a random number of
// gates of a random module M_start is moved into a random module
// M_target (not necessarily connected). If all gates move, M_start is
// deleted.
//
//lint:hotpath high-variance mutation operator, runs χλ times per generation
func monteCarlo(p *partition.Partition, rng *rand.Rand, sc *moveScratch) bool {
	if p.NumModules() < 2 {
		return false
	}
	src := rng.Intn(p.NumModules())
	dst := rng.Intn(p.NumModules() - 1)
	if dst >= src {
		dst++
	}
	gates := p.AppendModuleGates(sc.gates[:0], src)
	sc.gates = gates[:0]
	n := 1 + rng.Intn(len(gates))
	//lint:ignore hotalloc non-escaping swap closure passed to rng.Shuffle, stack-allocated
	rng.Shuffle(len(gates), func(i, j int) { gates[i], gates[j] = gates[j], gates[i] })
	_, err := p.MoveGates(gates[:n], src, dst)
	return err == nil
}

// adaptStep draws the child's step width from a normal distribution
// around the parent's (§4.2: "the new m is subject to normal distribution
// with variance ε around the m of the step before").
func adaptStep(m int, eps float64, rng *rand.Rand) int {
	nm := int(math.Round(float64(m) + rng.NormFloat64()*eps))
	if nm < 1 {
		nm = 1
	}
	return nm
}

func cheapest(pop []*individual) *individual {
	best := pop[0]
	for _, ind := range pop[1:] {
		if ind.cost < best.cost {
			best = ind
		}
	}
	return best
}

// selectBest returns the mu cheapest individuals (or all, if fewer).
func selectBest(pool []*individual, mu int) []*individual {
	// Simple selection sort over a small pool keeps determinism obvious.
	n := len(pool)
	if mu > n {
		mu = n
	}
	out := make([]*individual, 0, mu)
	used := make([]bool, n)
	for k := 0; k < mu; k++ {
		bi := -1
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			if bi == -1 || pool[i].cost < pool[bi].cost {
				bi = i
			}
		}
		used[bi] = true
		out = append(out, pool[bi])
	}
	return out
}

// ChainStarts builds the §4.2 start population: prm.Mu chain-based start
// partitions of at most size gates per module, drawn from a random stream
// seeded with prm.Seed. A size <= 0 uses the module size estimated from
// averaged parameters (standard.EstimateModuleSize). It takes no context
// on purpose: a cancelled run must still return a best-so-far Result, so
// the start population has to exist before Optimize can honour
// cancellation at generation boundaries. The starts' gate groups are drawn
// one after another on the calling goroutine, because they share the
// stream: start i's draws begin where start i−1's ended, and how many
// draws a start takes depends on the chains it grew. Counting a start's
// S(M) and n(t) (partition.New) depends on its groups alone, so each
// start is counted on the first free of up to GOMAXPROCS goroutines as
// soon as its groups are drawn (par.Stream). The starts come back in the
// order they were drawn, and the error of the lowest-numbered failing
// start is the one returned.
func ChainStarts(e *estimate.Estimator, w partition.Weights, cons partition.Constraints, size int, prm Params) ([]*partition.Partition, error) {
	if err := prm.validate(); err != nil {
		return nil, err
	}
	if size <= 0 {
		size = standard.EstimateModuleSize(e, w, cons)
	}
	rng := rand.New(rand.NewSource(prm.Seed))
	groups := make([][][]int, prm.Mu)
	starts := make([]*partition.Partition, prm.Mu)
	errs := make([]error, prm.Mu)
	par.Stream(prm.Mu, func(submit func(i int)) {
		for i := range groups {
			groups[i] = standard.ChainStartPartition(e.A.Circuit, size, rng)
			submit(i)
		}
	}, func(_, i int) {
		starts[i], errs[i] = partition.New(e, groups[i], w, cons)
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("evolution: start partition %d: %w", i, err)
		}
	}
	return starts, nil
}
