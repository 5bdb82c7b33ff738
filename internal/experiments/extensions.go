package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"iddqsyn/internal/anneal"
	"iddqsyn/internal/atpg"
	"iddqsyn/internal/bic"
	"iddqsyn/internal/celllib"
	"iddqsyn/internal/circuits"
	"iddqsyn/internal/core"
	"iddqsyn/internal/estimate"
	"iddqsyn/internal/evolution"
	"iddqsyn/internal/faults"
	"iddqsyn/internal/partition"
	"iddqsyn/internal/techmap"
)

// OptimizerRow compares the optimization algorithms the paper lists for
// PART-IDDQ ("force-driven, simulated annealing, Monte Carlo, genetic,
// e.g.") from identical start partitions and comparable evaluation
// budgets.
type OptimizerRow struct {
	Algorithm   string
	FinalCost   float64
	Evaluations int
	Modules     int
	Feasible    bool
}

// OptimizerComparison runs the evolution strategy, simulated annealing
// and greedy hill climbing on the named circuit from the same §4.2 start
// population (the ES uses all μ starts; SA and HC start from the best).
// startSize sets the start-partition granularity; pass a size well below
// the optimum module size so the optimizers have real merging and
// refinement work to differentiate on (0 uses the §4.2 estimate).
func OptimizerComparison(ctx context.Context, name string, startSize int, eprm evolution.Params) ([]OptimizerRow, error) {
	c, err := circuits.ISCAS85Like(name)
	if err != nil {
		return nil, err
	}
	a, err := celllib.Annotate(c, celllib.Default())
	if err != nil {
		return nil, err
	}
	e := estimate.New(a, estimate.DefaultParams())
	w := partition.PaperWeights()
	cons := partition.DefaultConstraints()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	starts, err := evolution.ChainStarts(e, w, cons, startSize, eprm)
	if err != nil {
		return nil, err
	}
	best := starts[0]
	//lint:ignore ctxloop cached-cost scan over mu individuals, microseconds
	for _, s := range starts[1:] {
		if s.Cost() < best.Cost() {
			best = s
		}
	}

	es, err := evolution.Optimize(ctx, starts, eprm, nil)
	if err != nil {
		return nil, err
	}
	budget := es.Evaluations // give the others the same evaluation budget

	saPrm := anneal.DefaultParams()
	saPrm.Seed = eprm.Seed
	saPrm.MaxMoves = budget
	// Scale the cooling schedule so annealing completes within the
	// budget (~80 epochs) instead of being cut off while still hot.
	if saPrm.MovesPerEpoch = budget / 80; saPrm.MovesPerEpoch < 1 {
		saPrm.MovesPerEpoch = 1
	}
	sa, err := anneal.Anneal(ctx, best, saPrm)
	if err != nil {
		return nil, err
	}
	hc, err := anneal.HillClimb(ctx, best, budget, budget/4+1, eprm.Seed)
	if err != nil {
		return nil, err
	}

	return []OptimizerRow{
		{"evolution", es.BestCost, es.Evaluations, es.Best.NumModules(), es.Best.Feasible()},
		{"annealing", sa.BestCost, sa.Moves, sa.Best.NumModules(), sa.Best.Feasible()},
		{"hill-climb", hc.BestCost, hc.Moves, hc.Best.NumModules(), hc.Best.Feasible()},
	}, nil
}

// FormatOptimizers renders the comparison.
func FormatOptimizers(rows []OptimizerRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-12s %12s %12s %8s %9s\n", "algorithm", "final cost", "evaluations", "modules", "feasible")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-12s %12.6g %12d %8d %9v\n",
			r.Algorithm, r.FinalCost, r.Evaluations, r.Modules, r.Feasible)
	}
	return sb.String()
}

// VariantRow sizes every sensor technology for the worst module of an
// evolved partition, quantifying the paper's argument for the bypass-MOS
// class under stringent rail limits.
type VariantRow struct {
	Technology   bic.Technology
	Area         float64
	Perturbation float64
	Settle       float64
	Suitable     bool
}

// SensorVariants evaluates the sensing-device classes on the named
// circuit's largest-current module.
func SensorVariants(ctx context.Context, name string, eprm evolution.Params) ([]VariantRow, error) {
	c, err := circuits.ISCAS85Like(name)
	if err != nil {
		return nil, err
	}
	res, err := core.SynthesizeContext(ctx, c, core.Options{Evolution: &eprm})
	if err != nil {
		return nil, err
	}
	worst := 0
	//lint:ignore ctxloop cached module-estimate scan, microseconds
	for mi := 0; mi < res.Partition.NumModules(); mi++ {
		if res.Partition.ModuleEstimate(mi).IDDMax > res.Partition.ModuleEstimate(worst).IDDMax {
			worst = mi
		}
	}
	m := res.Partition.ModuleEstimate(worst)
	var rows []VariantRow
	//lint:ignore ctxloop fixed four-entry technology table, no real work
	for _, tech := range bic.Technologies() {
		v := bic.SizeVariant(tech, worst, m, res.Estimator.P)
		rows = append(rows, VariantRow{
			Technology:   tech,
			Area:         v.Area,
			Perturbation: v.Perturbation,
			Settle:       v.Settle,
			Suitable:     v.Suitable,
		})
	}
	return rows, nil
}

// FormatVariants renders the sensor-technology table.
func FormatVariants(rows []VariantRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-14s %12s %14s %12s %9s\n", "technology", "area", "perturbation", "settle", "suitable")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-14s %12.4g %13.3gV %11.3gs %9v\n",
			r.Technology, r.Area, r.Perturbation, r.Settle, r.Suitable)
	}
	return sb.String()
}

// TechmapRow is one candidate mapping's end-to-end result: the mapping
// style, its gate count, and the evolved partition cost on that netlist.
type TechmapRow struct {
	Style techmap.Style
	Gates int
	Cost  float64
}

// TechmapStudy runs the paper's future-work flow: map the circuit in each
// style, evolve a partition on each, and compare the final costs against
// the mapper's choice.
func TechmapStudy(ctx context.Context, name string, eprm evolution.Params) (chosen techmap.Style, rows []TechmapRow, err error) {
	c, err := circuits.ISCAS85Like(name)
	if err != nil {
		return 0, nil, err
	}
	lib := celllib.Default()
	p := estimate.DefaultParams()
	w := partition.PaperWeights()
	cons := partition.DefaultConstraints()
	mres, err := techmap.MapForIDDQ(c, lib, p, w, cons)
	if err != nil {
		return 0, nil, err
	}
	for _, cand := range mres.Candidates {
		res, err := core.SynthesizeContext(ctx, cand.Circuit, core.Options{Evolution: &eprm})
		if err != nil {
			return 0, nil, err
		}
		rows = append(rows, TechmapRow{
			Style: cand.Style,
			Gates: cand.Gates,
			Cost:  res.Partition.Cost(),
		})
	}
	return mres.Chosen.Style, rows, nil
}

// ScheduleRow is one readout strategy's area/time point for an evolved
// design and its generated test set.
type ScheduleRow struct {
	Strategy     bic.Strategy
	Groups       int
	SensorArea   float64
	TotalTime    float64
	VectorPeriod float64
}

// ScheduleStudy sizes the sensors of an evolved partition, generates the
// IDDQ test set, and evaluates the three readout strategies — the
// area-vs-test-time trade-off behind the paper's c₅ routing cost.
func ScheduleStudy(ctx context.Context, name string, eprm evolution.Params) ([]ScheduleRow, error) {
	c, err := circuits.ISCAS85Like(name)
	if err != nil {
		return nil, err
	}
	res, err := core.SynthesizeContext(ctx, c, core.Options{Evolution: &eprm})
	if err != nil {
		return nil, err
	}
	cfg := faults.DefaultConfig()
	cfg.MaxBridges = 500
	list := faults.Universe(c, cfg, rand.New(rand.NewSource(eprm.Seed)))
	gen, err := atpg.Generate(c, list, atpg.DefaultOptions())
	if err != nil {
		return nil, err
	}
	nVec := len(gen.Vectors)
	if nVec == 0 {
		nVec = 1
	}
	var rows []ScheduleRow
	groups := res.Partition.NumModules()/2 + 1
	//lint:ignore ctxloop fixed three-strategy table, planning is closed-form
	for _, strat := range []bic.Strategy{bic.ReadParallel, bic.ReadSerial, bic.ReadGrouped} {
		s, err := bic.PlanSchedule(strat, res.Chip.Sensors, nVec,
			res.Costs.DBIc, res.Estimator.P.AreaA0, groups)
		if err != nil {
			return nil, err
		}
		rows = append(rows, ScheduleRow{
			Strategy:     strat,
			Groups:       s.Groups,
			SensorArea:   s.SensorArea,
			TotalTime:    s.TotalTime,
			VectorPeriod: s.VectorPeriod,
		})
	}
	return rows, nil
}

// FormatSchedules renders the readout-strategy table.
func FormatSchedules(rows []ScheduleRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-10s %7s %12s %14s %14s\n", "strategy", "groups", "sensor area", "vector period", "total time")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-10s %7d %12.4g %13.3gs %13.3gs\n",
			r.Strategy, r.Groups, r.SensorArea, r.VectorPeriod, r.TotalTime)
	}
	return sb.String()
}
