// Package core is the public face of iddqsyn: given a gate-level circuit
// and a characterised cell library, SynthesizeContext partitions the
// circuit into BIC-sensor modules — with the paper's evolution-based
// algorithm or the baseline standard partitioning — sizes one Built-In
// Current sensor per module, and returns the complete IDDQ-testable design
// together with its cost breakdown.
//
// Typical use:
//
//	c, _ := bench.Read(f, "mydesign")
//	res, err := core.SynthesizeContext(ctx, c, core.Options{})
//	fmt.Println(res.Report())
package core

import (
	"context"
	"fmt"
	"strings"

	"iddqsyn/internal/bic"
	"iddqsyn/internal/celllib"
	"iddqsyn/internal/chaos"
	"iddqsyn/internal/circuit"
	"iddqsyn/internal/estimate"
	"iddqsyn/internal/evolution"
	"iddqsyn/internal/obs"
	"iddqsyn/internal/partcheck"
	"iddqsyn/internal/partition"
	"iddqsyn/internal/standard"
)

// Degradation telemetry: MetricOptimizerFailures counts failed optimizer
// attempts (each retry that did not produce a result), MetricDegraded is
// set to 1 when the synthesis fell back to standard partitioning.
const (
	MetricOptimizerFailures = "core.optimizer.failures"
	MetricDegraded          = "core.degraded"
)

// Method selects the partitioning algorithm.
type Method int

// The available partitioning methods.
const (
	// MethodEvolution is the paper's contribution: the §4 evolution-based
	// algorithm over the §3 estimators.
	MethodEvolution Method = iota
	// MethodStandard is the §5 baseline: greedy path-length clustering at
	// a fixed module size.
	MethodStandard
)

// String names the method.
func (m Method) String() string {
	switch m {
	case MethodEvolution:
		return "evolution"
	case MethodStandard:
		return "standard"
	}
	return fmt.Sprintf("Method(%d)", int(m))
}

// Options configures SynthesizeContext. The zero value selects the paper's
// defaults everywhere: the built-in cell library, the §3 estimator
// constants, the §5 weight factors, d = 10, and the evolution method.
type Options struct {
	// Estimator, if set, is an estimator of the synthesized circuit, built
	// with estimate.New or taken from an earlier Result, so runs of one
	// circuit share one build; the run binds its own view (ForRun) and
	// records no core.annotate or core.estimator span. nil: annotate with
	// celllib.Default() and build with estimate.DefaultParams().
	Estimator   *estimate.Estimator
	Weights     *partition.Weights     // nil: partition.PaperWeights()
	Constraints *partition.Constraints // nil: partition.DefaultConstraints()
	Evolution   *evolution.Params      // nil: evolution.DefaultParams()

	Method Method

	// ModuleSize fixes the module size for MethodStandard and for the
	// evolution start partitions. 0 estimates it from averaged parameters
	// (§4.2).
	ModuleSize int

	// Modules, if nonzero and Method is MethodStandard, overrides
	// ModuleSize so the standard partitioning produces this many modules
	// (Table 1 compares the methods at equal module counts).
	Modules int

	// Control configures evolution run control: the per-generation trace
	// and periodic crash-safe checkpointing of the optimizer state. Only
	// meaningful for MethodEvolution.
	Control *evolution.Control

	// Resume, if set, continues a checkpointed evolution run instead of
	// constructing a fresh start population. The checkpoint must belong
	// to the circuit being synthesized; the evolution parameters are
	// taken from the checkpoint (Options.Evolution is ignored), so the
	// resumed run finishes bit-identically to an uninterrupted one.
	Resume *evolution.Checkpoint

	// Obs, if non-nil, observes the synthesis: estimator call telemetry,
	// the optimizer's per-generation metrics, logs and live status, and —
	// when its tracer is armed and the context carries no span — a
	// core.synthesize trace of the phases. When nil the Obs carried by the
	// context (obs.FromContext) is used; if that is also nil the synthesis
	// is unobserved at zero cost. A fault injector reaches the synthesis
	// on the context only (chaos.NewContext).
	Obs *obs.Obs

	// Degrade enables graceful degradation: a failed evolution run is
	// retried once — the retry re-runs the identical seeded optimization,
	// so after a transient fault it reproduces the uninjected run
	// bit-identically — and when that attempt fails too (a poisoned
	// estimator, persistent checkpoint I/O failure, a worker panic storm),
	// the synthesis falls back to greedy standard partitioning instead of
	// failing outright. The fallback result is marked (Result.Degraded,
	// Obs.SetDegraded, MetricDegraded) so it can never masquerade as a
	// converged optimization.
	Degrade bool
}

// Result is a synthesized IDDQ-testable design.
type Result struct {
	Method    Method
	Circuit   *circuit.Circuit
	Estimator *estimate.Estimator // the run's view; Estimator.A is the annotated circuit
	Partition *partition.Partition
	Chip      *bic.Chip
	Costs     partition.CostVector

	// Evolution holds the optimizer trace for MethodEvolution (nil for
	// the standard method).
	Evolution *evolution.Result

	// Degraded reports that the evolution optimizer failed every attempt
	// and the partition came from the greedy standard fallback instead.
	// DegradedErr preserves the optimizer's final error (its chain intact
	// for errors.Is), so the cause of the degradation stays diagnosable.
	Degraded    bool
	DegradedErr error
}

// SynthesizeContext runs the full flow on circuit c. The context is
// threaded into the optimizer, which checks it at generation boundaries.
// A cancelled synthesis still returns a complete Result — partition,
// sensors, costs — built from the optimizer's best-so-far individual, with
// Result.Evolution.Interrupted set.
func SynthesizeContext(ctx context.Context, c *circuit.Circuit, opt Options) (res *Result, err error) {
	// Last-resort containment: whatever a poisoned estimator or injected
	// fault manages to blow up, the synthesis ends with a named error —
	// never a process crash, never an unvalidated result.
	defer contain(&res, &err, "synthesis")
	if opt.Estimator != nil && opt.Estimator.A.Circuit != c {
		return nil, fmt.Errorf("core: Options.Estimator was built for circuit %q, not for %q",
			opt.Estimator.A.Circuit.Name, c.Name)
	}
	o := opt.Obs
	if o == nil {
		o = obs.FromContext(ctx)
	}
	// The optimizer takes its Obs from the context only.
	ctx = obs.NewContext(ctx, o)
	w := partition.PaperWeights()
	if opt.Weights != nil {
		w = *opt.Weights
	}
	cons := partition.DefaultConstraints()
	if opt.Constraints != nil {
		cons = *opt.Constraints
	}
	eprm := evolution.DefaultParams()
	if opt.Evolution != nil {
		eprm = *opt.Evolution
	}

	// Each core phase is a trace span under the span the context carries
	// (the serving layer's serve.attempt), so a retained slow trace
	// decomposes the attempt into annotate / estimator / optimize / audit
	// / chip. Without one the synthesis is a trace of its own, rooted at
	// core.synthesize. All nil-cheap when tracing is off.
	psp := obs.SpanFromContext(ctx)
	if psp == nil {
		root := o.Tracer().StartRoot("core.synthesize")
		defer root.End()
		psp = root
	}

	e := opt.Estimator
	if e == nil {
		tsp := psp.StartChild("core.annotate")
		a, err := celllib.Annotate(c, celllib.Default())
		tsp.End()
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		tsp = psp.StartChild("core.estimator")
		e = estimate.New(a, estimate.DefaultParams())
		tsp.End()
	}
	e = e.ForRun(o, chaos.FromContext(ctx))

	res = &Result{Method: opt.Method, Circuit: c, Estimator: e}
	optTsp := psp.StartChild("core.optimize")
	ctx = obs.ContextWithSpan(ctx, optTsp) // evolution generations attach here
	switch opt.Method {
	case MethodEvolution:
		attempts := 1
		if opt.Degrade {
			attempts = 2
		}
		var er *evolution.Result
		var optErr error
		for attempt := 1; attempt <= attempts; attempt++ {
			if attempt > 1 && ctx.Err() != nil {
				break // cancelled mid-retry: keep the last failure
			}
			er, optErr = runEvolution(ctx, e, w, cons, eprm, opt)
			if optErr == nil {
				break
			}
			o.Counter(MetricOptimizerFailures).Inc()
			o.Log().Warn("optimizer attempt failed",
				"attempt", attempt, "of", attempts, "err", optErr.Error())
		}
		switch {
		case optErr == nil:
			res.Evolution = er
			res.Partition = er.Best
		case opt.Degrade:
			p, serr := standardGroups(opt, e, w, cons)
			if serr != nil {
				return nil, fmt.Errorf("core: optimizer failed (%w); standard fallback also failed: %w", optErr, serr)
			}
			res.Degraded = true
			res.DegradedErr = optErr
			res.Partition = p
			o.Counter(MetricDegraded).Inc()
			o.SetDegraded(optErr.Error())
			o.Log().Error("optimizer failed on every attempt: degraded to standard partitioning",
				"attempts", attempts, "err", optErr.Error())
		default:
			return nil, optErr
		}
	case MethodStandard:
		p, serr := standardGroups(opt, e, w, cons)
		if serr != nil {
			return nil, serr
		}
		res.Partition = p
	default:
		return nil, fmt.Errorf("core: unknown method %v", opt.Method)
	}
	optTsp.End()

	// Every synthesis result passes the static partition audit before it
	// is reported: exact cover, netlist consistency, and agreement of the
	// incrementally maintained module estimates with a from-scratch
	// evaluation. Feasibility bounds are the caller's policy (see
	// partcheck.Feasibility); a violated structural invariant here is a
	// bug, and the named constraint says which one.
	tsp := psp.StartChild("core.audit")
	r := partcheck.VerifyPartition(res.Partition, partcheck.StructureOnly())
	tsp.End()
	if !r.OK() {
		return nil, fmt.Errorf("core: final partition fails the static audit: %w", r.Err())
	}
	res.Costs = res.Partition.Costs()
	// The sensors are sized from the partition's own module estimates: the
	// audit has just shown that they are those of a fresh evaluation.
	tsp = psp.StartChild("core.chip")
	chip, err := bic.NewChip(e.A, moduleEstimates(res.Partition), e.P)
	tsp.End()
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	res.Chip = chip
	o.Log().Info("synthesis complete",
		"circuit", c.Name, "method", opt.Method.String(),
		"modules", res.Partition.NumModules(),
		"cost", res.Partition.Cost(),
		"feasible", res.Partition.Feasible())
	return res, nil
}

// runEvolution runs one optimizer attempt — resume or fresh start — with
// panic containment: a panic anywhere in the attempt (start-population
// construction included) becomes an error with its chain intact, so the
// retry/degrade loop above can classify it with errors.Is.
func runEvolution(ctx context.Context, e *estimate.Estimator,
	w partition.Weights, cons partition.Constraints, eprm evolution.Params,
	opt Options) (er *evolution.Result, err error) {
	defer contain(&er, &err, "optimizer")
	if opt.Resume != nil {
		er, err = evolution.Resume(ctx, opt.Resume, e, w, cons, opt.Control)
	} else {
		var starts []*partition.Partition
		starts, err = evolution.ChainStarts(e, w, cons, opt.ModuleSize, eprm)
		if err == nil {
			er, err = evolution.Optimize(ctx, starts, eprm, opt.Control)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return er, nil
}

// moduleEstimates lists the module estimates of p in module order.
func moduleEstimates(p *partition.Partition) []*estimate.Module {
	mods := make([]*estimate.Module, p.NumModules())
	for mi := range mods {
		mods[mi] = p.ModuleEstimate(mi)
	}
	return mods
}

// standardGroups builds the greedy standard partition — both the
// MethodStandard main path and the degraded-mode fallback — with panic
// containment so even a poisoned estimator yields a named error rather
// than a crash.
func standardGroups(opt Options, e *estimate.Estimator, w partition.Weights,
	cons partition.Constraints) (p *partition.Partition, err error) {
	defer contain(&p, &err, "standard partitioning")
	var groups [][]int
	if opt.Modules > 0 {
		groups = standard.StandardPartitionK(e, opt.Modules)
	} else {
		size := opt.ModuleSize
		if size <= 0 {
			size = standard.EstimateModuleSize(e, w, cons)
		}
		groups = standard.StandardPartition(e, size)
	}
	p, err = partition.New(e, groups, w, cons)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return p, nil
}

// Report renders a human-readable synthesis report: the partition, the
// per-module sensors, and the cost breakdown.
func (r *Result) Report() string {
	var sb strings.Builder
	cv := r.Costs
	fmt.Fprintf(&sb, "circuit %s — %s partitioning\n", r.Circuit.Name, r.Method)
	if r.Degraded {
		fmt.Fprintf(&sb, "  DEGRADED: optimizer failed, fell back to standard partitioning (%v)\n", r.DegradedErr)
	}
	fmt.Fprintf(&sb, "  gates: %d  modules: %d  feasible: %v (worst d = %.1f, required %.1f)\n",
		r.Circuit.NumLogicGates(), r.Partition.NumModules(), r.Partition.Feasible(),
		r.Partition.WorstDiscriminability(), r.Partition.Cons.MinDiscriminability)
	fmt.Fprintf(&sb, "  sensor area: %.4g   delay: +%.3g%%   test time: +%.3g%%   separation: %d\n",
		cv.SensorArea, 100*cv.DelayOverhead, 100*cv.TestTime, cv.Separation)
	fmt.Fprintf(&sb, "  weighted cost C(Π) = %.6g\n", r.Partition.Cost())
	if r.Evolution != nil {
		note := ""
		if r.Evolution.Interrupted {
			note = " (interrupted — best-so-far result)"
		}
		fmt.Fprintf(&sb, "  evolution: %d generations, %d evaluations%s\n",
			r.Evolution.Generations, r.Evolution.Evaluations, note)
	}
	for mi := range r.Chip.Sensors {
		s := &r.Chip.Sensors[mi]
		m := r.Partition.ModuleEstimate(mi)
		fmt.Fprintf(&sb, "  module %2d: %4d gates  îDD=%.3gmA  Ron=%.3gΩ  area=%.4g  d=%.1f\n",
			mi, r.Partition.ModuleSize(mi), 1e3*s.IDDMax, s.ROn, s.Area,
			m.Discriminability(r.Estimator.P.IDDQth))
	}
	return sb.String()
}

// contain converts a panic escaping a core phase into an error naming the
// phase and clears the phase's result, so a panicking phase never hands
// out a partial value. Error-valued panics (the estimator's numeric
// guards, injected faults) are wrapped with %w so errors.Is sees through
// the recover boundary. Used as: defer contain(&res, &err, "synthesis").
func contain[T any](res *T, err *error, phase string) {
	r := recover()
	if r == nil {
		return
	}
	var zero T
	*res = zero
	if perr, ok := r.(error); ok {
		*err = fmt.Errorf("core: %s panicked: %w", phase, perr)
	} else {
		*err = fmt.Errorf("core: %s panicked: %v", phase, r)
	}
}
