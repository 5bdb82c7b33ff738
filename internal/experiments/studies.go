package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"iddqsyn/internal/celllib"
	"iddqsyn/internal/circuits"
	"iddqsyn/internal/core"
	"iddqsyn/internal/electrical"
	"iddqsyn/internal/estimate"
	"iddqsyn/internal/evolution"
	"iddqsyn/internal/logicsim"
	"iddqsyn/internal/partition"
)

// ConvergenceResult records the §5 convergence claim for one circuit:
// "even for the largest circuit convergence was obtained within a few
// hours" — here measured in generations and evaluations.
type ConvergenceResult struct {
	Circuit     string
	Gates       int
	Generations int
	Evaluations int
	StartCost   float64 // best start-population cost
	FinalCost   float64
	History     []float64
}

// Convergence runs the evolution flow on one circuit from start
// partitions of module size startSize (0 = the §4.2 estimate) and records
// the best-cost trajectory. A deliberately fine start shows the full
// merge-and-refine trajectory even on circuits whose optimum is coarse.
func Convergence(ctx context.Context, name string, startSize int, prm evolution.Params) (*ConvergenceResult, error) {
	c, err := circuits.ISCAS85Like(name)
	if err != nil {
		return nil, err
	}
	res, err := core.SynthesizeContext(ctx, c, core.Options{Evolution: &prm, ModuleSize: startSize})
	if err != nil {
		return nil, err
	}
	if err := verifyFinal(name+" convergence", res); err != nil {
		return nil, err
	}
	er := res.Evolution
	out := &ConvergenceResult{
		Circuit:     name,
		Gates:       c.NumLogicGates(),
		Generations: er.Generations,
		Evaluations: er.Evaluations,
		FinalCost:   er.BestCost,
		History:     er.History,
	}
	if len(er.History) > 0 {
		out.StartCost = er.History[0]
	}
	return out, nil
}

// AblationResult compares evolution variants that disable one design
// choice of §4, isolating its contribution.
type AblationResult struct {
	Circuit  string
	Baseline float64 // final cost with the full §4 scheme
	Variant  float64 // final cost with the feature disabled
	Feature  string
}

// AblateMonteCarlo measures the contribution of the χ Monte-Carlo
// descendants (the mechanism against local minima), from deliberately
// fine starts so the optimizer has a full trajectory to differ on.
func AblateMonteCarlo(ctx context.Context, name string, prm evolution.Params) (*AblationResult, error) {
	base, err := Convergence(ctx, name, ablationStartSize, prm)
	if err != nil {
		return nil, err
	}
	noMC := prm
	noMC.Chi = 0
	variant, err := Convergence(ctx, name, ablationStartSize, noMC)
	if err != nil {
		return nil, err
	}
	return &AblationResult{
		Circuit: name, Feature: "monte-carlo (χ=0)",
		Baseline: base.FinalCost, Variant: variant.FinalCost,
	}, nil
}

// ablationStartSize is the fine start-partition granularity of the
// ablation studies.
const ablationStartSize = 8

// AblateLifetime measures the contribution of the maximum lifetime ω
// (deleting stale elites) by making parents immortal.
func AblateLifetime(ctx context.Context, name string, prm evolution.Params) (*AblationResult, error) {
	base, err := Convergence(ctx, name, ablationStartSize, prm)
	if err != nil {
		return nil, err
	}
	immortal := prm
	immortal.Omega = 1 << 30
	variant, err := Convergence(ctx, name, ablationStartSize, immortal)
	if err != nil {
		return nil, err
	}
	return &AblationResult{
		Circuit: name, Feature: "lifetime (ω=∞)",
		Baseline: base.FinalCost, Variant: variant.FinalCost,
	}, nil
}

// WeightSweepPoint is one setting of the Speed-Area-Testability priority
// sweep: the §2 design space exploration the weight factors αᵢ enable.
type WeightSweepPoint struct {
	Label      string
	Weights    partition.Weights
	Modules    int
	SensorArea float64
	DelayPct   float64
	TestPct    float64
	WorstDisc  float64
}

// WeightSweep synthesizes one circuit under different weight priorities
// (area-focused, delay-focused, testability-focused) and reports how the
// design moves through the Speed-Area-Testability space.
func WeightSweep(ctx context.Context, name string, prm evolution.Params) ([]WeightSweepPoint, error) {
	c, err := circuits.ISCAS85Like(name)
	if err != nil {
		return nil, err
	}
	paper := partition.PaperWeights()
	areaW := paper
	areaW.Area *= 100
	delayW := paper
	delayW.Delay *= 100
	modW := paper
	modW.Modules *= 1e5
	points := []WeightSweepPoint{
		{Label: "paper", Weights: paper},
		{Label: "area-focused", Weights: areaW},
		{Label: "delay-focused", Weights: delayW},
		{Label: "few-modules", Weights: modW},
	}
	for i := range points {
		res, err := core.SynthesizeContext(ctx, c, core.Options{
			Weights:   &points[i].Weights,
			Evolution: &prm,
		})
		if err != nil {
			return nil, err
		}
		cv := res.Costs
		points[i].Modules = res.Partition.NumModules()
		points[i].SensorArea = cv.SensorArea
		points[i].DelayPct = 100 * cv.DelayOverhead
		points[i].TestPct = 100 * cv.TestTime
		points[i].WorstDisc = res.Partition.WorstDiscriminability()
	}
	return points, nil
}

// FormatWeightSweep renders the sweep as a table.
func FormatWeightSweep(points []WeightSweepPoint) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-14s %8s %12s %10s %10s %8s\n",
		"priority", "modules", "sensor area", "delay", "test", "worst d")
	for _, p := range points {
		fmt.Fprintf(&sb, "%-14s %8d %12.3e %9.2f%% %9.2f%% %8.1f\n",
			p.Label, p.Modules, p.SensorArea, p.DelayPct, p.TestPct, p.WorstDisc)
	}
	return sb.String()
}

// EstimatorPessimism quantifies the §3.1 claim that the logic-level
// îDD,max estimate is a safe upper bound. Two references: a grid-aligned
// worst case (every gate switches once at its latest transition time),
// and a timing-simulated workload (event-driven transport-delay
// simulation of random vector pairs, hazards included, each switch a
// triangular current pulse).
type EstimatorPessimism struct {
	Circuit   string
	Module    int
	Estimate  float64 // îDD,max from the §3.1 estimator, A
	Simulated float64 // peak of the grid-aligned pulse sum, A
	Timing    float64 // worst timing-simulated peak over random vector pairs, A

	// Ratio is Estimate/Simulated — the §3.1 single-transition bound the
	// estimator guarantees (always ≥ 1).
	Ratio float64
	// TimingRatio is Estimate/Timing. Hazard pulses under loaded,
	// non-uniform delays can multiply the real transient beyond the
	// single-transition model, so this can drop below 1 — an empirical
	// limit of the paper's estimator that EXPERIMENTS.md discusses.
	TimingRatio float64
}

// Pessimism evaluates the estimator bound on every module of an evolved
// partition of the named circuit.
func Pessimism(ctx context.Context, name string, prm evolution.Params) ([]EstimatorPessimism, error) {
	c, err := circuits.ISCAS85Like(name)
	if err != nil {
		return nil, err
	}
	res, err := core.SynthesizeContext(ctx, c, core.Options{Evolution: &prm})
	if err != nil {
		return nil, err
	}
	return pessimismOf(res)
}

func pessimismOf(res *core.Result) ([]EstimatorPessimism, error) {
	e := res.Estimator
	timing, err := timingPeaks(res, 24, 1)
	if err != nil {
		return nil, err
	}
	var out []EstimatorPessimism
	for mi := 0; mi < res.Partition.NumModules(); mi++ {
		gates := res.Partition.AppendModuleGates(nil, mi)
		m := res.Partition.ModuleEstimate(mi)
		sim := simulatedPeak(e, res.Annotated, gates)
		p := EstimatorPessimism{
			Circuit:   res.Circuit.Name,
			Module:    mi,
			Estimate:  m.IDDMax,
			Simulated: sim,
			Timing:    timing[mi],
			Ratio:     m.IDDMax / sim,
		}
		if timing[mi] > 0 {
			p.TimingRatio = m.IDDMax / timing[mi]
		}
		out = append(out, p)
	}
	return out, nil
}

// timingPeaks runs the event-driven timing simulator over random vector
// pairs and returns, per module, the worst observed peak of the summed
// triangular switching-current pulses.
func timingPeaks(res *core.Result, pairs int, seed int64) ([]float64, error) {
	c := res.Circuit
	a := res.Annotated
	ts, err := logicsim.NewTiming(c, a.Delay)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	peaks := make([]float64, res.Partition.NumModules())
	from := make([]bool, len(c.Inputs))
	to := make([]bool, len(c.Inputs))
	for p := 0; p < pairs; p++ {
		for i := range from {
			from[i] = rng.Intn(2) == 1
			to[i] = rng.Intn(2) == 1
		}
		events, err := ts.Run(from, to)
		if err != nil {
			return nil, err
		}
		// Per-module pulse lists.
		pulses := make([][]electrical.Pulse, len(peaks))
		for _, ev := range events {
			mi := res.Chip.ModuleOf(ev.Gate)
			if mi < 0 {
				continue
			}
			pulses[mi] = append(pulses[mi], electrical.Pulse{
				Start:    ev.Time,
				Duration: a.Delay[ev.Gate],
				Peak:     a.Peak[ev.Gate],
			})
		}
		for mi, ps := range pulses {
			v, err := pulsePeak(ps)
			if err != nil {
				return nil, err
			}
			if v > peaks[mi] {
				peaks[mi] = v
			}
		}
	}
	return peaks, nil
}

// pulsePeak returns the maximum of a summed triangular pulse train,
// sampled at sub-pulse resolution.
func pulsePeak(pulses []electrical.Pulse) (float64, error) {
	if len(pulses) == 0 {
		return 0, nil
	}
	end := 0.0
	minDur := pulses[0].Duration
	for _, p := range pulses {
		if t := p.Start + p.Duration; t > end {
			end = t
		}
		if p.Duration < minDur {
			minDur = p.Duration
		}
	}
	res, err := electrical.SimulateRail(pulses, 1, 0, minDur/8, end)
	if err != nil {
		return 0, err
	}
	return res.PeakCurrent, nil
}

// simulatedPeak sums triangular pulses: each gate switches once at its
// *latest* transition time (one concrete, realisable alignment) and the
// peak of the summed waveform is measured on a fine grid.
func simulatedPeak(e *estimate.Estimator, a *celllib.Annotated, gates []int) float64 {
	const steps = 8 // sub-grid resolution per unit delay
	depth := e.TS.Depth()
	wave := make([]float64, (depth+2)*steps)
	for _, g := range gates {
		times := e.TS.Times(g)
		if len(times) == 0 {
			continue
		}
		t0 := times[len(times)-1] * steps
		peak := a.Peak[g]
		// Triangular pulse spanning one grid unit.
		for k := 0; k < steps; k++ {
			frac := float64(k) / float64(steps)
			var v float64
			if frac < 0.5 {
				v = peak * 2 * frac
			} else {
				v = peak * 2 * (1 - frac)
			}
			wave[t0+k] += v
		}
	}
	var max float64
	for _, v := range wave {
		if v > max {
			max = v
		}
	}
	return max
}
