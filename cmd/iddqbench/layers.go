package main

import (
	"math/rand"
	"runtime"
	"time"

	"iddqsyn/internal/core"
	"iddqsyn/internal/estimate"
	"iddqsyn/internal/evolution"
	"iddqsyn/internal/obs"
	"iddqsyn/internal/partition"
	"iddqsyn/internal/standard"
)

// replayMin is how long each replayed call is repeated.
const replayMin = 200 * time.Millisecond

// traceRecords indexes the tracer's retained traces by ID.
func traceRecords(tr *obs.Tracer) map[uint64]obs.TraceRecord {
	out := map[uint64]obs.TraceRecord{}
	for _, t := range tr.Snapshot().Slowest {
		out[t.Trace] = t
	}
	return out
}

// traceTimes is one trace's span time summed by span name, in
// nanoseconds. core.optimize is kept per occurrence: a Table 1 row
// optimizes twice, evolution first and the standard method second.
type traceTimes struct {
	root     spanTime
	dur      map[string]int64
	self     map[string]int64
	optimize []spanTime
}

func newTraceTimes(t obs.TraceRecord) traceTimes {
	tt := traceTimes{dur: map[string]int64{}, self: map[string]int64{}}
	for _, st := range selfTimes(t.Spans) {
		if st.rec.Parent == 0 {
			tt.root = st
		}
		tt.dur[st.rec.Name] += st.rec.Dur
		tt.self[st.rec.Name] += st.self
		if st.rec.Name == "core.optimize" {
			tt.optimize = append(tt.optimize, st)
		}
	}
	return tt
}

// spanLayers turns traces into per-trace mean phase times: core phases,
// the evolution loop's phases, the start-population build (the evolution
// optimize span's self time), and how much of the root span the traced
// phases cover.
func spanLayers(times []traceTimes) map[string]float64 {
	m := map[string]float64{}
	if len(times) == 0 {
		return m
	}
	n := float64(len(times))
	perTrace := func(ns int64) float64 { return float64(ns) / n / 1e9 }
	var covered, rootDur, optimize, startpop, partK int64
	nK := 0
	for _, t := range times {
		covered += t.root.rec.Dur - t.root.self
		rootDur += t.root.rec.Dur
		if len(t.optimize) > 0 {
			optimize += t.optimize[0].rec.Dur
			startpop += t.optimize[0].self
		}
		if len(t.optimize) > 1 {
			partK += t.optimize[1].rec.Dur
			nK++
		}
	}
	sum := func(name string) int64 {
		var s int64
		for _, t := range times {
			s += t.dur[name]
		}
		return s
	}
	m["core.annotate_s"] = perTrace(sum("core.annotate"))
	m["estimate.build_s"] = perTrace(sum("core.estimator"))
	m["core.optimize_s"] = perTrace(optimize)
	m["core.audit_s"] = perTrace(sum("core.audit"))
	m["core.chip_s"] = perTrace(sum("core.chip"))
	m["evolution.startpop_s"] = perTrace(startpop)
	m["evolution.evaluate_s"] = perTrace(sum("evolution.evaluate"))
	m["evolution.select_s"] = perTrace(sum("evolution.select"))
	if nK > 0 {
		m["standard.partitionk_s"] = float64(partK) / float64(nK) / 1e9
	}
	if rootDur > 0 {
		m["trace_coverage_pct"] = 100 * float64(covered) / float64(rootDur)
	}
	return m
}

// registryLayers turns the optimizer's and the estimator's counters into
// per-op work counts, busy times and useful-work ratios.
func registryLayers(s *obs.MetricsSnapshot, ops float64) map[string]float64 {
	c := func(name string) float64 { return float64(s.Counters[name]) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	return map[string]float64{
		"estimate.evalmodule.calls":          c(estimate.MetricEvalModuleCalls) / ops,
		"estimate.evalmodule.busy_s":         s.Histograms[estimate.MetricEvalModuleSeconds].Sum / ops,
		"partition.cost.busy_s":              s.Histograms[evolution.MetricEvalSeconds].Sum / ops,
		"evolution.generations":              c(evolution.MetricGenerations) / ops,
		"evolution.evaluations":              c(evolution.MetricEvaluations) / ops,
		"evolution.mutation.applied_ratio":   ratio(c(evolution.MetricMutationApplied), c(evolution.MetricMutationAttempts)),
		"evolution.montecarlo.applied_ratio": ratio(c(evolution.MetricMonteCarloApplied), c(evolution.MetricMonteCarloAttempts)),
		"evolution.mutation.accepted_ratio":  ratio(c(evolution.MetricMutationAccepted), c(evolution.MetricMutationApplied)),
		"evolution.infeasible_ratio":         ratio(c(evolution.MetricInfeasible), c(evolution.MetricEvaluations)),
	}
}

func mergeInto(dst, src map[string]float64) {
	for k, v := range src {
		dst[k] = v
	}
}

// finishLayers derives the metrics that combine two sources: the serial
// clone-and-mutate share of the evaluate phase, and the evaluation rate of
// the optimize phase.
func finishLayers(m map[string]float64) {
	m["evolution.mutate_s"] = m["evolution.evaluate_s"] - m["partition.cost.busy_s"]
	if opt := m["core.optimize_s"]; opt > 0 {
		m["evolution.evals_per_s"] = m["evolution.evaluations"] / opt
	}
}

// replays times the estimator, partition and start-population calls on
// the partition a workload produced, each repeated for replayMin, and
// returns nanoseconds per call.
func replays(res *core.Result, moduleSize int, seed int64) map[string]float64 {
	e, p, c := res.Estimator, res.Partition, res.Circuit
	groups := p.Groups()
	var gates float64
	for _, g := range groups {
		gates += float64(len(g))
	}
	m := map[string]float64{"estimate.evalmodule.gates_mean": gates / float64(len(groups))}
	module := func(i int) []int { return groups[i%len(groups)] }

	m["estimate.evalmodule.ns"] = nsPerCall(func(i int) { e.EvalModule(module(i)) })
	m["estimate.separation.ns"] = nsPerCall(func(i int) { e.SeparationModule(module(i)) })
	m["estimate.maxcurrent.ns"] = nsPerCall(func(i int) { e.TS.MaxCurrent(e.A, module(i)) })
	m["estimate.activity.ns"] = nsPerCall(func(i int) { e.TS.ActivityProfile(module(i)) })

	moduleOf := make([]int, c.NumGates())
	for g := range moduleOf {
		moduleOf[g] = p.ModuleOf(g)
	}
	mods := make([]*estimate.Module, p.NumModules())
	for mi := range mods {
		mods[mi] = p.ModuleEstimate(mi)
	}
	m["estimate.bicdelay.ns"] = nsPerCall(func(int) { e.BICDelay(moduleOf, mods) })

	m["partition.clone.ns"] = nsPerCall(func(int) { p.Clone() })
	m["partition.move.ns"] = moveNs(p)
	m["partition.recompute.ns"] = nsPerCall(func(int) {
		if q, err := partition.New(e, groups, p.W, p.Cons); err == nil {
			q.Cost()
		}
	})

	size := moduleSize
	if size <= 0 {
		size = standard.EstimateModuleSize(e, p.W, p.Cons)
	}
	rng := rand.New(rand.NewSource(seed))
	m["standard.chainstart.ns"] = nsPerCall(func(int) { standard.ChainStartPartition(c, size, rng) })
	m["standard.modulesize.ns"] = nsPerCall(func(int) { standard.EstimateModuleSize(e, p.W, p.Cons) })
	return m
}

// nsPerCall repeats f for at least replayMin and returns its mean time.
func nsPerCall(f func(i int)) float64 {
	runtime.GC()
	start := time.Now()
	for n := 0; ; {
		for j := 0; j < 8; j++ {
			f(n)
			n++
		}
		if el := time.Since(start); el >= replayMin {
			return float64(el.Nanoseconds()) / float64(n)
		}
	}
}

// moveNs times moving one boundary gate into a connected module, the
// mutation operator's edit, on fresh clones of p. Source modules keep at
// least one gate, so no move deletes a module. The clones are made
// outside the timed region.
func moveNs(p *partition.Partition) float64 {
	type move struct {
		gate     []int
		from, to int
	}
	var moves []move
	for mi := 0; mi < p.NumModules(); mi++ {
		if p.ModuleSize(mi) < 2 {
			continue
		}
		for _, g := range p.BoundaryGates(mi) {
			if to := p.ConnectedModules(g); len(to) > 0 {
				moves = append(moves, move{[]int{g}, mi, to[0]})
			}
		}
	}
	if len(moves) == 0 {
		return 0
	}
	runtime.GC()
	var spent time.Duration
	n := 0
	for spent < replayMin {
		clones := make([]*partition.Partition, 64)
		for i := range clones {
			clones[i] = p.Clone()
		}
		t0 := time.Now()
		for _, q := range clones {
			mv := moves[n%len(moves)]
			if _, err := q.MoveGates(mv.gate, mv.from, mv.to); err != nil {
				return 0
			}
			n++
		}
		spent += time.Since(t0)
	}
	return float64(spent.Nanoseconds()) / float64(n)
}
