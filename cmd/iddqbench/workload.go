package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"iddqsyn/internal/circuit"
	"iddqsyn/internal/circuits"
	"iddqsyn/internal/core"
	"iddqsyn/internal/evolution"
	"iddqsyn/internal/experiments"
	"iddqsyn/internal/obs"
	"iddqsyn/internal/partition"
	"iddqsyn/internal/standard"
)

type kind int

const (
	kindSynth    kind = iota // one core synthesis per op
	kindTable1               // one experiments.Table1 row per op
	kindServe                // one fresh served job per op
	kindServeHit             // one cache-hit served job per op
)

// workload is one set of inputs the benchmark runs. BENCHMARK.json and
// README.md say why each exists.
type workload struct {
	name       string
	kind       kind
	circuit    string // ISCAS85 profile name (circuits.ISCAS85Like)
	moduleSize int    // 0 = the §4.2 estimate core picks by default
	gens       int    // generations per evolution run; the stall window equals it, so the work is fixed
	minOps     int    // ops timed even when --seconds has run out
}

var workloads = []*workload{
	{name: "coarse-c1908", kind: kindSynth, circuit: "c1908", gens: 60, minOps: 5},
	{name: "fine-c7552", kind: kindSynth, circuit: "c7552", moduleSize: 8, gens: 60, minOps: 5},
	// c2670, not c3540: every start partition at c2670's estimated module
	// size is feasible, so every row is; c3540's starts never are, and about
	// one run in 300 still has no feasible design after 60 generations,
	// which Table 1 refuses.
	{name: "table1-c2670", kind: kindTable1, circuit: "c2670", gens: 60, minOps: 4},
	{name: "serve-c880", kind: kindServe, circuit: "c880", moduleSize: 8, gens: 20},
	{name: "serve-hit-c880", kind: kindServeHit, circuit: "c880", moduleSize: 8, gens: 20},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// params returns the evolution parameters of one op: the defaults with a
// fixed generation budget. With the stall window equal to the budget every
// run executes exactly gens generations.
func (w *workload) params(seed int64, gens int) evolution.Params {
	p := evolution.DefaultParams()
	p.MaxGenerations, p.StallGenerations = gens, gens
	p.Seed = seed
	return p
}

// wantEvaluations is the evaluation count of a run in which every
// mutation and Monte-Carlo attempt moved gates: μ start evaluations plus
// μ·(λ+χ) descendants per generation (2888 at 60 generations).
func wantEvaluations(p evolution.Params) int {
	return p.Mu + p.MaxGenerations*p.Mu*(p.Lambda+p.Chi)
}

// opSeed derives the evolution seed of op i from the run seed and the
// workload, so every process of a run agrees on it without coordination.
func opSeed(runSeed int64, w *workload, i int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d/%d", w.name, runSeed, i)
	// splitmix64's finalizer: FNV hashes of strings that differ in one
	// character differ mostly in their low bits.
	x := h.Sum64()
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return int64((x^x>>31)>>2) + 1
}

// opOut is what one optimizer op yields for the checks and the metrics.
type opOut struct {
	wall    time.Duration
	cost    float64  // C(Π) of the evolution result
	bits    []uint64 // the float bits the determinism checks compare
	gens    int
	evals   int
	modules int
	areaOv  float64      // Table 1 rows: standard-over-evolution sensor-area overhead, %
	res     *core.Result // synthesis ops only
}

// synthRunner runs the optimizer workloads: core syntheses or Table 1 rows.
type synthRunner struct {
	w    *workload
	cfg  *config
	gens int
	c    *circuit.Circuit
	warm opOut
}

func newSynthRunner(cfg *config, w *workload) (*synthRunner, error) {
	c, err := circuits.ISCAS85Like(w.circuit)
	if err != nil {
		return nil, err
	}
	return &synthRunner{w: w, cfg: cfg, gens: cfg.generations(w), c: c}, nil
}

// op runs op i. o, when non-nil, observes it; a trace span on ctx
// collects its phases.
func (r *synthRunner) op(ctx context.Context, i int, o *obs.Obs) (opOut, error) {
	prm := r.w.params(opSeed(r.cfg.seed, r.w, i), r.gens)
	if r.w.kind == kindTable1 {
		t0 := time.Now()
		rows, err := experiments.Table1(obs.NewContext(ctx, o), experiments.Table1Config{
			Circuits: []string{r.w.circuit}, Evolution: &prm,
		})
		wall := time.Since(t0)
		if err != nil {
			return opOut{}, err
		}
		row := rows[0]
		return opOut{
			wall: wall, cost: row.CostEvolution,
			bits: floatBits(row.CostEvolution, row.CostStandard, row.AreaEvolution, row.AreaStandard,
				row.DelayEvolution, row.DelayStandard, row.TestEvolution, row.TestStandard),
			gens: row.Generations, evals: row.Evaluations, modules: row.Modules, areaOv: row.AreaOverhead,
		}, nil
	}
	t0 := time.Now()
	res, err := core.SynthesizeContext(ctx, r.c, core.Options{Evolution: &prm, ModuleSize: r.w.moduleSize, Obs: o})
	wall := time.Since(t0)
	if err != nil {
		return opOut{}, err
	}
	return opOut{
		wall: wall, cost: res.Partition.Cost(), bits: costBits(res.Costs),
		gens: res.Evolution.Generations, evals: res.Evolution.Evaluations,
		modules: res.Partition.NumModules(), res: res,
	}, nil
}

// direct synthesizes op i's evolution half straight through core, for the
// Table 1 workload's checks and replays.
func (r *synthRunner) direct(ctx context.Context, i int) (*core.Result, error) {
	prm := r.w.params(opSeed(r.cfg.seed, r.w, i), r.gens)
	return core.SynthesizeContext(ctx, r.c, core.Options{Evolution: &prm, ModuleSize: r.w.moduleSize})
}

// warmup runs op 0 untimed: it ends set-up, and the timed op 0 must
// reproduce its cost bit for bit.
func (r *synthRunner) warmup(ctx context.Context) (string, error) {
	out, err := r.op(ctx, 0, nil)
	if err != nil {
		return "", fmt.Errorf("warm-up op: %w", err)
	}
	out.res = nil
	r.warm = out
	return fingerprint(out.bits), nil
}

// checkOp records the per-op checks and reports whether all passed.
func (r *synthRunner) checkOp(rep *report, out opOut, i int) bool {
	prm := r.w.params(opSeed(r.cfg.seed, r.w, i), r.gens)
	ok := rep.check("work: generations and evaluations fixed",
		out.gens == r.gens && out.evals == wantEvaluations(prm),
		fmt.Sprintf("op %d: %d generations, %d evaluations; want %d, %d",
			i, out.gens, out.evals, r.gens, wantEvaluations(prm)))
	if out.res != nil {
		detail, good := oracle(out.res)
		ok = rep.check("oracle: from-scratch cost equals the optimizer's", good, detail) && ok
		ok = rep.check("result feasible", out.res.Partition.Feasible(),
			fmt.Sprintf("op %d: worst d %.3g", i, out.res.Partition.WorstDiscriminability())) && ok
	}
	return ok
}

// finalChecks are the once-per-run checks on op 0: its start population
// and, for Table 1, the agreement of the row with a direct synthesis.
func (r *synthRunner) finalChecks(ctx context.Context, rep *report, first *core.Result) *core.Result {
	if r.w.kind == kindTable1 {
		res, err := r.direct(ctx, 0)
		if !rep.verify("table1: direct synthesis matches the row", err == nil && res.Partition.Cost() == r.warm.cost,
			fmt.Sprintf("row cost %v, direct %v (err %v)", r.warm.cost, costOf(res), err)) {
			return nil
		}
		detail, good := oracle(res)
		rep.verify("oracle: from-scratch cost equals the optimizer's", good, detail)
		first = res
	}
	if first != nil {
		prm := r.w.params(opSeed(r.cfg.seed, r.w, 0), r.gens)
		n := minStartModules(first, r.w.moduleSize, prm)
		rep.verify("work: every start has at least 2 modules", n >= 2, fmt.Sprintf("smallest start has %d modules", n))
	}
	return first
}

func (r *synthRunner) measure(ctx context.Context) (*report, error) {
	rep := newReport()
	var walls, costs []float64
	var first *core.Result
	start := time.Now()
	for i := 0; r.cfg.more(r.w, i, start); i++ {
		runtime.GC()
		out, err := r.op(ctx, i, nil)
		rep.Attempted++
		if err != nil {
			rep.fail("op", err.Error())
			continue
		}
		if !r.checkOp(rep, out, i) {
			rep.Failed++
		}
		if i == 0 {
			rep.verify("determinism: timed op 0 equals the warm-up",
				fingerprint(out.bits) == fingerprint(r.warm.bits), "costs differ")
			first = out.res
		}
		walls = append(walls, out.wall.Seconds())
		costs = append(costs, out.cost)
	}
	r.finalChecks(ctx, rep, first)
	if len(walls) == 0 {
		return rep, nil
	}
	rep.set("op_p50_s", quantile(walls, 0.5), walls)
	rep.set("final_cost_mean", mean(costs), costs)
	rep.set("peak_rss_mb", peakRSSMB(), nil)
	return rep, nil
}

// trace runs each traced op twice, unobserved then observed, and derives
// the per-layer numbers from the observed runs' spans and counters.
func (r *synthRunner) trace(ctx context.Context) (*report, error) {
	rep := newReport()
	reg := obs.NewRegistry()
	tr := obs.NewTracer(obs.TracerConfig{Slowest: 64, MaxSpansPerTrace: 1 << 14})
	o := obs.New("iddqbench", reg, nil)
	o.SetTracer(tr)

	n := r.cfg.tracedOps()
	var t tracedOps
	var capture *core.Result
	for i := 0; i < n; i++ {
		runtime.GC()
		a0 := totalAlloc()
		plain, err := r.op(ctx, i, nil)
		a1 := totalAlloc()
		rep.Attempted++
		if err != nil {
			rep.fail("op", err.Error())
			continue
		}
		runtime.GC()
		root := tr.StartRoot("iddqbench.op")
		traced, err := r.op(obs.ContextWithSpan(ctx, root), i, o)
		root.End()
		rep.Attempted++
		if err != nil {
			rep.fail("op", err.Error())
			continue
		}
		for _, out := range []opOut{plain, traced} {
			if !r.checkOp(rep, out, i) {
				rep.Failed++
			}
		}
		rep.verify("determinism: observed op equals unobserved",
			fingerprint(plain.bits) == fingerprint(traced.bits), fmt.Sprintf("op %d costs differ", i))
		if i == 0 {
			capture = plain.res
		}
		t.add(root.Trace(), plain, traced, a1-a0)
	}
	capture = r.finalChecks(ctx, rep, capture)
	if len(t.ids) == 0 || capture == nil {
		return rep, nil
	}
	m := t.layers(tr, reg)
	rep.verify("work: mutations applied", m["evolution.mutation.applied_ratio"] > 0, "no mutation moved a gate")
	if r.w.kind == kindTable1 {
		m["standard.area_overhead_pct"] = mean(t.areaOv)
	} else {
		k, ov, err := standardAtEqualK(ctx, tr, capture)
		if err != nil {
			return nil, err
		}
		m["standard.partitionk_s"], m["standard.area_overhead_pct"] = k, ov
	}
	mergeInto(m, replays(capture, r.w.moduleSize, opSeed(r.cfg.seed, r.w, 0)))
	finishLayers(m)
	rep.setAll(m)
	return rep, nil
}

// tracedOps collects what the traced optimizer run measured per op pair.
type tracedOps struct {
	ids                                              []uint64 // trace of each observed op
	plainWalls, tracedWalls, allocs, modules, areaOv []float64
}

func (t *tracedOps) add(id uint64, plain, traced opOut, alloc uint64) {
	t.ids = append(t.ids, id)
	t.plainWalls = append(t.plainWalls, plain.wall.Seconds())
	t.tracedWalls = append(t.tracedWalls, traced.wall.Seconds())
	t.allocs = append(t.allocs, float64(alloc)/(1<<20))
	t.modules = append(t.modules, float64(traced.modules))
	t.areaOv = append(t.areaOv, traced.areaOv)
}

// layers derives the per-layer numbers the ops' traces, counters and
// timings give.
func (t *tracedOps) layers(tr *obs.Tracer, reg *obs.Registry) map[string]float64 {
	var times []traceTimes
	records := traceRecords(tr)
	for _, id := range t.ids {
		if rec, ok := records[id]; ok {
			times = append(times, newTraceTimes(rec))
		}
	}
	m := spanLayers(times)
	mergeInto(m, registryLayers(reg.Snapshot(), float64(len(t.ids))))
	m["core.alloc_mb"] = mean(t.allocs)
	m["partition.modules_mean"] = mean(t.modules)
	m["trace_overhead_pct"] = 100 * (quantile(t.tracedWalls, 0.5)/quantile(t.plainWalls, 0.5) - 1)
	for _, def := range perLayer {
		if strings.HasPrefix(def.Name, "serve.") {
			m[def.Name] = 0 // the serving layers are not on this workload's path
		}
	}
	return m
}

func (r *synthRunner) close() {}

// standardAtEqualK runs the standard method at the evolution result's
// module count, as Table 1 does, and returns its partitioning time and the
// standard-over-evolution sensor-area overhead in percent.
func standardAtEqualK(ctx context.Context, tr *obs.Tracer, evo *core.Result) (float64, float64, error) {
	root := tr.StartRoot("iddqbench.standard")
	std, err := core.SynthesizeContext(obs.ContextWithSpan(ctx, root), evo.Circuit, core.Options{
		Method: core.MethodStandard, Modules: evo.Partition.NumModules(),
	})
	root.End()
	if err != nil {
		return 0, 0, fmt.Errorf("standard partitioning at equal K: %w", err)
	}
	t, ok := traceRecords(tr)[root.Trace()]
	if !ok {
		return 0, 0, fmt.Errorf("standard partitioning trace not retained")
	}
	tt := newTraceTimes(t)
	var partK float64
	if len(tt.optimize) > 0 {
		partK = float64(tt.optimize[0].rec.Dur) / 1e9
	}
	ev, st := evo.Costs.SensorArea, std.Costs.SensorArea
	return partK, 100 * (st - ev) / ev, nil
}

// oracle recomputes the result's cost vector from scratch and compares it
// with the optimizer's incrementally maintained one, bit for bit.
func oracle(res *core.Result) (string, bool) {
	p := res.Partition
	fresh, err := partition.New(res.Estimator, p.Groups(), p.W, p.Cons)
	if err != nil {
		return err.Error(), false
	}
	if got, want := costBits(fresh.Costs()), costBits(res.Costs); fingerprint(got) != fingerprint(want) {
		return fmt.Sprintf("from scratch %+v, optimizer %+v", fresh.Costs(), res.Costs), false
	}
	return "", true
}

// minStartModules replays the start population core builds for the run
// (§4.2 chain starts at the run's module size, from the run's seed) and
// returns the smallest module count among the starts.
func minStartModules(res *core.Result, moduleSize int, prm evolution.Params) int {
	size := moduleSize
	if size <= 0 {
		size = standard.EstimateModuleSize(res.Estimator, res.Partition.W, res.Partition.Cons)
	}
	rng := rand.New(rand.NewSource(prm.Seed))
	least := math.MaxInt
	for i := 0; i < prm.Mu; i++ {
		least = min(least, len(standard.ChainStartPartition(res.Circuit, size, rng)))
	}
	return least
}

func costOf(res *core.Result) float64 {
	if res == nil {
		return math.NaN()
	}
	return res.Partition.Cost()
}

func costBits(cv partition.CostVector) []uint64 {
	return append(floatBits(cv.LogArea, cv.DelayOverhead, cv.LogSeparation, cv.TestTime,
		cv.Modules, cv.SensorArea, cv.DBIc, cv.DNominal), uint64(cv.Separation))
}

func floatBits(xs ...float64) []uint64 {
	out := make([]uint64, len(xs))
	for i, x := range xs {
		out[i] = math.Float64bits(x)
	}
	return out
}

// fingerprint hashes bit patterns into one comparable string.
func fingerprint(bits []uint64) string {
	h := fnv.New64a()
	for _, b := range bits {
		fmt.Fprintf(h, "%016x", b)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}
