// Telemetry for the evolution strategy: every quantity the paper's
// evaluation judges the optimizer by — cost per generation, mutation and
// Monte-Carlo acceptance, step-width self-adaptation, constraint-
// violation churn — is recorded into the run's obs registry, streamed as
// structured log events, and published live for the /runz introspection
// endpoint. The instrumentation never touches the seeded random stream,
// so an observed run stays bit-identical to an unobserved one.

package evolution

import (
	"log/slog"

	"iddqsyn/internal/obs"
)

// Metric names recorded by the optimizer. Exposed as constants so tests
// and tools read the same registry keys the generation loop writes.
const (
	MetricEvaluations        = "evolution.evaluations"
	MetricGenerations        = "evolution.generations"
	MetricMutationAttempts   = "evolution.mutation.attempts"
	MetricMutationApplied    = "evolution.mutation.applied"
	MetricMutationAccepted   = "evolution.mutation.accepted"
	MetricMonteCarloAttempts = "evolution.montecarlo.attempts"
	MetricMonteCarloApplied  = "evolution.montecarlo.applied"
	MetricMonteCarloAccepted = "evolution.montecarlo.accepted"
	MetricInfeasible         = "evolution.descendants.infeasible"
	MetricPruned             = "evolution.pruned"
	MetricImprovements       = "evolution.improvements"
	MetricCheckpointWrites   = "evolution.checkpoint.writes"
	MetricCheckpointRetries  = "evolution.checkpoint.retries"

	MetricGenerationGauge = "evolution.generation"
	MetricBestCostGauge   = "evolution.best_cost"
	MetricStallGauge      = "evolution.stall"
	MetricPopulationGauge = "evolution.population"
	MetricStepWidthGauge  = "evolution.step_width.mean"

	MetricEvalSeconds       = "evolution.eval.seconds"
	MetricGenerationSeconds = "evolution.generation.seconds"
	MetricCheckpointSeconds = "evolution.checkpoint.seconds"
)

// RunStatus is the live view of a running optimization, published after
// every generation for the /runz endpoint and persisted as the final
// status of a -metrics snapshot.
type RunStatus struct {
	Circuit        string  `json:"circuit"`
	Generation     int     `json:"generation"`
	MaxGenerations int     `json:"max_generations"`
	BestCost       float64 `json:"best_cost"`
	BestModules    int     `json:"best_modules"`
	Evaluations    int     `json:"evaluations"`
	Stall          int     `json:"stall"`
	Population     int     `json:"population"`

	// InfeasibleDescendants counts descendants that violated the
	// discriminability constraint Γ(Π) across the whole run.
	InfeasibleDescendants uint64 `json:"infeasible_descendants"`

	// History is the best cost after each generation (a copy — safe to
	// serve concurrently while the run appends).
	History []float64 `json:"history"`
}

// runObs holds the resolved metric handles for one optimization run, so
// the generation loop increments pointers instead of doing registry
// lookups. All fields are nil (and every operation a no-op) when the run
// is unobserved; `on` gates the few instrumentation steps that would
// otherwise cost real work (clock reads, per-descendant scans).
type runObs struct {
	on  bool
	o   *obs.Obs
	log *slog.Logger

	evaluations, generations             *obs.Counter
	mutAttempts, mutApplied, mutAccepted *obs.Counter
	mcAttempts, mcApplied, mcAccepted    *obs.Counter
	infeasible, pruned                   *obs.Counter
	improvements                         *obs.Counter
	checkpointWrites                     *obs.Counter
	checkpointRetries                    *obs.Counter

	generation, bestCost, stall, population, stepWidth *obs.Gauge

	evalSeconds, genSeconds, ckptSeconds *obs.Histogram
}

// newRunObs resolves every metric handle once. With o == nil the handles
// stay nil and all recording collapses to no-ops.
func newRunObs(o *obs.Obs) *runObs {
	r := &runObs{on: o != nil, o: o, log: o.Log()}
	if !r.on {
		return r
	}
	r.evaluations = o.Counter(MetricEvaluations)
	r.generations = o.Counter(MetricGenerations)
	r.mutAttempts = o.Counter(MetricMutationAttempts)
	r.mutApplied = o.Counter(MetricMutationApplied)
	r.mutAccepted = o.Counter(MetricMutationAccepted)
	r.mcAttempts = o.Counter(MetricMonteCarloAttempts)
	r.mcApplied = o.Counter(MetricMonteCarloApplied)
	r.mcAccepted = o.Counter(MetricMonteCarloAccepted)
	r.infeasible = o.Counter(MetricInfeasible)
	r.pruned = o.Counter(MetricPruned)
	r.improvements = o.Counter(MetricImprovements)
	r.checkpointWrites = o.Counter(MetricCheckpointWrites)
	r.checkpointRetries = o.Counter(MetricCheckpointRetries)
	r.generation = o.Gauge(MetricGenerationGauge)
	r.bestCost = o.Gauge(MetricBestCostGauge)
	r.stall = o.Gauge(MetricStallGauge)
	r.population = o.Gauge(MetricPopulationGauge)
	r.stepWidth = o.Gauge(MetricStepWidthGauge)
	r.evalSeconds = o.Histogram(MetricEvalSeconds, nil)
	r.genSeconds = o.Histogram(MetricGenerationSeconds, nil)
	r.ckptSeconds = o.Histogram(MetricCheckpointSeconds, nil)
	return r
}

// afterGeneration records the per-generation metrics, publishes the live
// RunStatus, and emits the generation event. Called at the end of every
// completed generation, after selection.
func (r *runObs) afterGeneration(s *state, descendants int) {
	if !r.on {
		return
	}
	r.generations.Inc()
	r.generation.Set(float64(s.res.Generations))
	r.bestCost.Set(s.res.BestCost)
	r.stall.Set(float64(s.stall))
	r.population.Set(float64(len(s.pop)))
	accM, accMC, mSum := 0, 0, 0
	for _, ind := range s.pop {
		mSum += ind.m
		if ind.age != 0 {
			continue
		}
		switch ind.origin {
		case originMutation:
			accM++
		case originMonteCarlo:
			accMC++
		}
	}
	r.mutAccepted.Add(uint64(accM))
	r.mcAccepted.Add(uint64(accMC))
	if len(s.pop) > 0 {
		r.stepWidth.Set(float64(mSum) / float64(len(s.pop)))
	}
	r.o.SetStatus(RunStatus{
		Circuit:               s.pop[0].p.E.A.Circuit.Name,
		Generation:            s.res.Generations,
		MaxGenerations:        s.prm.MaxGenerations,
		BestCost:              s.res.BestCost,
		BestModules:           s.res.Best.NumModules(),
		Evaluations:           s.res.Evaluations,
		Stall:                 s.stall,
		Population:            len(s.pop),
		InfeasibleDescendants: r.infeasible.Value(),
		History:               append([]float64(nil), s.res.History...),
	})
	r.log.Debug("generation",
		"gen", s.res.Generations,
		"best_cost", s.res.BestCost,
		"descendants", descendants,
		"accepted_mutation", accM,
		"accepted_montecarlo", accMC,
		"stall", s.stall)
}

// countInfeasible tallies descendants that violated Γ(Π). It asks each
// partition, whose module walk is exact also when its cost is a bound.
func (r *runObs) countInfeasible(descendants []*individual) {
	if !r.on {
		return
	}
	n := uint64(0)
	for _, d := range descendants {
		if !d.p.Feasible() {
			n++
		}
	}
	r.infeasible.Add(n)
}
