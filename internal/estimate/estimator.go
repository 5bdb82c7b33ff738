package estimate

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"iddqsyn/internal/celllib"
	"iddqsyn/internal/chaos"
	"iddqsyn/internal/circuit"
	"iddqsyn/internal/electrical"
	"iddqsyn/internal/obs"
)

// Metric names recorded by an observed estimator (see SetObs). Module
// evaluation is the innermost hot path of every optimizer, so its call
// count and latency distribution are the primary throughput signal of a
// run. The D_BIC sweep counters give the mean number of arrival times
// one cost evaluation recomputes: gates over sweeps (a full sweep counts
// the primary inputs too).
const (
	MetricEvalModuleCalls   = "estimate.evalmodule.calls"
	MetricEvalModuleSeconds = "estimate.evalmodule.seconds"
	MetricBICDelaySweeps    = "estimate.bicdelay.sweeps"
	MetricBICDelayGates     = "estimate.bicdelay.gates"
)

// Params collects the technology- and policy-level constants of the
// estimators. Zero values are invalid; use DefaultParams as a base.
type Params struct {
	RailLimit float64 // r*: maximum virtual-rail perturbation, V (§3.1)
	AreaA0    float64 // sensor area model: detection-circuitry term (§3.1)
	AreaA1    float64 // sensor area model: sensing/bypass term coefficient
	CsSensor  float64 // intrinsic sensor capacitance at the virtual rail, F
	IDDQth    float64 // sensing threshold IDDQ,th, A (§2)
	Rho       int     // separation-parameter cap ρ (§3.3), at most 256
}

// DefaultParams returns the constants used throughout the experiments:
// a 200 mV rail limit (the paper quotes 100–300 mV), a 1 µA sensing
// threshold ("effective test of defects in CMOS typically requires
// IDDQ,th ≈ 1 µA"), and ρ = 4. The paper does not publish its ρ; 4 keeps
// the ρ-hop neighbourhoods — and with them the cost of evaluating S(M) —
// small even on the densest benchmark circuits while still separating
// tight clusters from scattered ones.
func DefaultParams() Params {
	return Params{
		RailLimit: 0.2,
		AreaA0:    1.0e4,
		AreaA1:    2.0e6, // area units · Ω: A1/Rs dominates for small Rs
		CsSensor:  150e-15,
		IDDQth:    1e-6,
		Rho:       4,
	}
}

// Estimator evaluates the per-module and global quantities of §3 for one
// annotated circuit. It is immutable after construction — SetObs, which
// attaches telemetry handles, must run before the estimator is shared —
// and then safe for concurrent use.
type Estimator struct {
	P  Params
	A  *celllib.Annotated
	TS *TimeSets

	nominalDelay float64
	dag          sweepDAG // the circuit flattened for the D_BIC sweep

	// Per-gate neighbourhoods, precomputed once so that the separation
	// parameter — by far the most frequently re-evaluated estimate during
	// evolution — needs no repeated BFS. A pair d ≥ ρ hops apart (or
	// disconnected) is capped at ρ and saves nothing against ρ·pairs, so
	// only pairs within ρ−1 hops are kept. They form one table in
	// compressed sparse rows: nbrGate[nbrOff[g]:nbrOff[g+1]] lists the
	// logic gates within ρ−1 hops of g (excluding g) in ascending ID
	// order, and the same range of nbrWeight their weights ρ − d, each in
	// 1..ρ−1.
	nbrOff    []int32
	nbrGate   []int32
	nbrWeight []uint8

	// class numbers the distinct bit patterns of (A.Delay[g], A.Rg[g]),
	// so FinishModule computes the delay damping of §3.2 once per class
	// present in a module rather than once per gate; numClasses counts
	// them.
	class      []int32
	numClasses int

	// Telemetry handles, resolved once by SetObs; nil (no-op) when the
	// estimator is unobserved. The metrics themselves are atomic, so the
	// optimizer worker pools record through them without contention.
	evalCalls   *obs.Counter
	evalSeconds *obs.Histogram
	bicSweeps   *obs.Counter
	bicGates    *obs.Counter

	// Fault injector, attached by SetChaos; nil in production. The
	// injector corrupts the estimator's own outputs (estimate.nan,
	// estimate.inf) so the numeric guards between here and the optimizers
	// can be exercised deterministically.
	chaos *chaos.Injector

	// scratch pools the transient buffers of EvalModule (current profile,
	// module membership mask) and of the D_BIC sweep (per-gate delays,
	// marks, arrival times). Both run millions of times per optimizer run
	// on concurrent worker pools, so these must not be allocated per call.
	// The pool belongs to the estimator, so its buffers are sized for this
	// circuit. Pool contents never affect results: the buffers are
	// (re)initialized before every use.
	scratch sync.Pool
}

// evalScratch is the transient working memory of one EvalModule or D_BIC
// sweep.
type evalScratch struct {
	prof    []float64 // current profile over the time grid
	mask    []bool    // module membership by gate ID, or sweep marks by position; all false between uses
	delay   []float64 // degraded delay per gate ID
	arrival []float64 // arrival time per sweep position, for BICDelay, whose caller keeps none
	damp    []float64 // delay damping per class; 0 = not computed yet
}

func (e *Estimator) getScratch() *evalScratch {
	sc, _ := e.scratch.Get().(*evalScratch)
	if sc == nil {
		//lint:ignore hotalloc pool miss only: steady-state evaluations reuse pooled scratch
		sc = &evalScratch{
			//lint:ignore hotalloc pool miss only
			prof: make([]float64, e.TS.Depth()+1),
			//lint:ignore hotalloc pool miss only
			mask: make([]bool, e.A.Circuit.NumGates()),
			//lint:ignore hotalloc pool miss only
			delay: make([]float64, e.A.Circuit.NumGates()),
			//lint:ignore hotalloc pool miss only
			arrival: make([]float64, e.A.Circuit.NumGates()),
			//lint:ignore hotalloc pool miss only
			damp: make([]float64, e.numClasses),
		}
	}
	return sc
}

// SetObs attaches run telemetry: every EvalModule call increments
// MetricEvalModuleCalls and records its latency into
// MetricEvalModuleSeconds, and every D_BIC sweep increments
// MetricBICDelaySweeps and adds the gates it recomputed to
// MetricBICDelayGates. Call it right after New, before the estimator is
// shared across goroutines; a nil o detaches nothing and keeps the
// estimator unobserved.
func (e *Estimator) SetObs(o *obs.Obs) {
	if e == nil || o == nil {
		return
	}
	e.evalCalls = o.Counter(MetricEvalModuleCalls)
	e.evalSeconds = o.Histogram(MetricEvalModuleSeconds, nil)
	e.bicSweeps = o.Counter(MetricBICDelaySweeps)
	e.bicGates = o.Counter(MetricBICDelayGates)
}

// SetChaos attaches a fault injector that poisons estimator outputs at
// the estimate.nan and estimate.inf sites. Like SetObs it must run before
// the estimator is shared; a nil injector (the default) costs one nil
// check per EvalModule.
func (e *Estimator) SetChaos(in *chaos.Injector) {
	if e == nil {
		return
	}
	e.chaos = in
}

// ErrRhoTooLarge reports a separation cap ρ above 256: the hop table
// stores each weight ρ − d in a uint8, and its largest weight is ρ − 1.
var ErrRhoTooLarge = errors.New("estimate: ρ exceeds 256")

// mustFitHopWeights panics with ErrRhoTooLarge unless every weight ρ − d
// of the hop table fits a uint8.
func mustFitHopWeights(rho int) {
	if rho > math.MaxUint8+1 {
		panic(fmt.Errorf("%w: ρ = %d", ErrRhoTooLarge, rho))
	}
}

// New builds an Estimator, computing the transition-time sets, the
// nominal (sensor-free) circuit delay, the delay classes and the
// bounded-distance cache once. It panics with ErrRhoTooLarge when
// p.Rho > 256.
func New(a *celllib.Annotated, p Params) *Estimator {
	mustFitHopWeights(p.Rho)
	e := &Estimator{P: p, A: a, TS: TransitionTimes(a.Circuit)}
	c := a.Circuit
	e.class, e.numClasses = delayClasses(a)
	c.Levels() // built here, so concurrent FinishModule calls only read it
	e.dag = newSweepDAG(a)
	sc := e.getScratch()
	e.nominalDelay, _ = e.dag.sweep(e.dag.nominal, sc.arrival, 0, c.NumGates()-1, nil)
	e.scratch.Put(sc)
	e.buildNeighborhoods()
	return e
}

// delayClasses gives every gate the id of its (A.Delay[g], A.Rg[g]) bit
// pattern, numbered in order of first appearance, and returns the number
// of distinct patterns.
func delayClasses(a *celllib.Annotated) ([]int32, int) {
	ids := make(map[[2]uint64]int32)
	class := make([]int32, a.Circuit.NumGates())
	for g := range class {
		key := [2]uint64{math.Float64bits(a.Delay[g]), math.Float64bits(a.Rg[g])}
		id, ok := ids[key]
		if !ok {
			id = int32(len(ids))
			ids[key] = id
		}
		class[g] = id
	}
	return class, len(ids)
}

// buildNeighborhoods fills the hop table on runtime.GOMAXPROCS(0)
// goroutines. Each takes a contiguous range of gate IDs and searches it
// within ρ−1 hops with its own HopScratch into its own rows, recording
// row ends relative to its range in nbrOff; the rows are then rebased and
// copied, in range order, into exactly sized nbrGate and nbrWeight. Every
// row is the same AppendWithinHops result a single pass would produce, so
// the table is identical for any worker count.
func (e *Estimator) buildNeighborhoods() {
	c, rho := e.A.Circuit, e.P.Rho
	n := c.NumGates()
	if n > 0 {
		c.Neighbors(0) // builds the lazy adjacency cache, so the workers only read it
	}
	type rows struct {
		lo, hi int // the worker's gate IDs
		gates  []int32
		weight []uint8
	}
	parts := make([]rows, min(runtime.GOMAXPROCS(0), n))
	for w := range parts {
		parts[w].lo, parts[w].hi = w*n/len(parts), (w+1)*n/len(parts)
	}
	e.nbrOff = make([]int32, n+1)
	var wg sync.WaitGroup
	wg.Add(len(parts))
	for w := range parts {
		go func(r *rows) {
			defer wg.Done()
			var hs circuit.HopScratch
			var hops []int32
			for g := r.lo; g < r.hi; g++ {
				if c.Gates[g].Type != circuit.Input {
					r.gates, hops = c.AppendWithinHops(&hs, g, rho-1, r.gates, hops[:0])
					for _, h := range hops {
						r.weight = append(r.weight, uint8(rho-int(h)))
					}
				}
				e.nbrOff[g+1] = int32(len(r.gates))
			}
		}(&parts[w])
	}
	wg.Wait()
	total := 0
	for _, r := range parts {
		total += len(r.gates)
	}
	e.nbrGate, e.nbrWeight = make([]int32, total), make([]uint8, total)
	base := 0
	for _, r := range parts {
		copy(e.nbrGate[base:], r.gates)
		copy(e.nbrWeight[base:], r.weight)
		for g := r.lo; g < r.hi; g++ {
			e.nbrOff[g+1] += int32(base)
		}
		base += len(r.gates)
	}
}

// Module is the estimator output for one gate group: everything the cost
// function and the constraints of §2 need.
type Module struct {
	Gates []int // the group, ascending gate IDs

	IDDMax     float64 // §3.1 transient-current upper bound, A
	Rs         float64 // bypass ON resistance r*/îDD,max, Ω
	Cs         float64 // virtual-rail parasitic capacitance, F
	Tau        float64 // sensor time constant Rs·Cs, s
	SensorArea float64 // A0 + A1/Rs
	LeakND     float64 // worst-case fault-free IDDQ,nd, A
	Settle     float64 // Δ(τ): current-decay + sensing time, s (§3.4)
	Separation int     // S(M) of §3.3
	Activity   []int   // n(t) profile over the time grid; shared, read-only

	// Delay holds each gate's degraded delay D(g)·δ(g, t) of §3.2,
	// aligned with Gates. δ depends only on the module's Rs, Cs and n(t)
	// at the gate's level, so it is fixed once the module is finished.
	Delay []float64
}

// Discriminability returns d(M) = IDDQ,th / IDDQ,nd (§2).
func (m *Module) Discriminability(iddqTh float64) float64 {
	if m.LeakND <= 0 {
		return 1e18 // an empty module discriminates perfectly
	}
	return iddqTh / m.LeakND
}

// must unwraps an electrical-model result. The estimator only ever feeds
// the models validated inputs — positive Params from DefaultParams and
// positive currents/delays from an annotated cell library — so an error
// here is an invariant violation, not an input condition; the optimizer
// worker pools recover such panics into errors. The panic value is the
// wrapped error itself, so errors.Is still sees electrical.ErrNonFinite
// after the recover boundary.
func must(v float64, err error) float64 {
	if err != nil {
		panic(fmt.Errorf("estimate: %w", err))
	}
	return v
}

// mustFinite guards an estimate that does not pass through an electrical
// model (and so would otherwise carry NaN/Inf silently into the cost
// function). Like must, it panics with an ErrNonFinite-wrapping error for
// the worker pools to recover.
func mustFinite(name string, v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		panic(fmt.Errorf("estimate: %s = %g: %w", name, v, electrical.ErrNonFinite))
	}
	return v
}

// EvalModule computes all per-module estimates for a gate group from
// scratch: FinishModule with the integer terms counted first.
func (e *Estimator) EvalModule(gates []int) *Module {
	return e.FinishModule(gates, 0, nil)
}

// ModuleCounts returns the integer §3 terms of a gate group: its
// separation S(M) (§3.3) and its activity profile n(t) (§3.1/§3.2).
func (e *Estimator) ModuleCounts(gates []int) (sep int, act []int) {
	sc := e.getScratch()
	sep = e.separationScratch(gates, sc.mask)
	e.scratch.Put(sc)
	return sep, e.TS.ActivityProfile(gates)
}

// FinishModule computes the per-module estimates of a gate group whose
// integer terms the caller maintains: sep = S(M) and act = n(t), a
// profile of length TS.Depth()+1 that the returned Module retains as its
// Activity (so the caller must not modify it afterwards); act == nil
// counts both first. The float terms — îDD,max, Rs, Cs, IDDQ,nd, Δ(τ) —
// are summed in ascending gate order, and each gate's degraded delay
// depends only on these, so the result is bit-identical to EvalModule of
// the same gates whenever sep and act are exact.
func (e *Estimator) FinishModule(gates []int, sep int, act []int) *Module {
	if e.evalCalls != nil {
		e.evalCalls.Inc()
		defer e.evalSeconds.ObserveSince(time.Now())
	}
	if act == nil {
		sep, act = e.ModuleCounts(gates)
	}
	//lint:ignore hotalloc the Module is the call's result, retained in the partition's estimate cache
	m := &Module{Gates: gates, Separation: sep, Activity: act}
	if len(gates) == 0 {
		return m
	}
	sc := e.getScratch()
	defer e.scratch.Put(sc)
	m.IDDMax = e.TS.maxCurrentScratch(e.A, gates, sc.prof)
	if e.chaos.Hit(chaos.SiteEstimateNaN) {
		m.IDDMax = math.NaN() // poison: SensorROn's guard must catch it
	}
	m.Rs = must(electrical.SensorROn(e.P.RailLimit, m.IDDMax))
	m.Cs = e.P.CsSensor
	for _, g := range gates {
		m.Cs += e.A.Cout[g]
	}
	m.Tau = m.Rs * m.Cs
	m.SensorArea = must(electrical.SensorArea(e.P.AreaA0, e.P.AreaA1, m.Rs))
	m.LeakND = e.A.TotalLeakageMax(gates)
	if e.chaos.Hit(chaos.SiteEstimateInf) {
		m.LeakND = math.Inf(1) // poison: mustFinite below must catch it
	}
	m.LeakND = mustFinite("IDDQ,nd", m.LeakND)
	m.Settle = must(electrical.SettlingTime(m.Tau, m.IDDMax, e.P.IDDQth))
	// The degradation of gate g is evaluated at the grid time the critical
	// transition reaches it — its level, the longest input→g path — using
	// the module's activity n(t) at exactly that instant. Its damping
	// depends only on the module's Rs, Cs and the gate's class, whose
	// members share D(g) and Rg(g) bit for bit, so it is computed (and
	// its inputs validated) once per class; a zero entry is recomputed,
	// which yields the same bits.
	levels := e.A.Circuit.Levels()
	damp := sc.damp
	clear(damp)
	//lint:ignore hotalloc the degraded delays are part of the Module result, retained with it in the partition's estimate cache
	m.Delay = make([]float64, len(gates))
	for i, g := range gates {
		n := 1
		if t := levels[g]; t < len(act) && act[t] > 1 {
			n = act[t]
		}
		k := e.class[g]
		if damp[k] == 0 {
			damp[k] = must(electrical.DelayDamping(m.Rs, e.A.Rg[g], e.A.Delay[g], m.Cs))
		}
		m.Delay[i] = e.A.Delay[g] * electrical.Degrade(n, m.Rs, e.A.Rg[g], damp[k])
	}
	return m
}

// SeparationModule computes S(M) of §3.3: the sum over all gate pairs of
// the separation parameter S(gi, gj) — the undirected hop distance in the
// circuit graph, forced to ρ when the distance exceeds ρ or no path
// exists. S(M) is minimal when the module is a tightly connected cluster.
// Pairs ρ or more hops apart (or disconnected) contribute exactly ρ, so
// S(M) = ρ·(number of pairs) − Σ_{near pairs} (ρ − dist) over the pairs
// within ρ−1 hops; only the cached weights ρ − dist need to be scanned.
func (e *Estimator) SeparationModule(gates []int) int {
	return e.separationScratch(gates, make([]bool, e.A.Circuit.NumGates()))
}

// separationScratch is SeparationModule against a caller-provided
// membership mask (all false on entry; restored to all false on return so
// pooled masks need no full clear between uses).
func (e *Estimator) separationScratch(gates []int, inModule []bool) int {
	if len(gates) < 2 {
		return 0
	}
	for _, g := range gates {
		inModule[g] = true
	}
	rho := e.P.Rho
	pairs := len(gates) * (len(gates) - 1) / 2
	sum := rho * pairs
	for _, g := range gates {
		nbrs, weights := e.Neighborhood(g)
		for i, nb := range nbrs {
			if nb > int32(g) && inModule[nb] {
				sum -= int(weights[i])
			}
		}
	}
	for _, g := range gates {
		inModule[g] = false
	}
	return sum
}

// Neighborhood returns the cached neighbourhood of gate g: the logic
// gates within ρ−1 hops of g (excluding g) in ascending ID order, and
// their weights ρ − d for hop distance d, each in 1..ρ−1. Every gate
// missing from it is ρ or more hops away (or unreachable) and weighs 0.
// The slices are shared; callers must not modify them.
func (e *Estimator) Neighborhood(g int) ([]int32, []uint8) {
	lo, hi := e.nbrOff[g], e.nbrOff[g+1]
	return e.nbrGate[lo:hi:hi], e.nbrWeight[lo:hi:hi]
}

// NominalDelay returns the longest-path delay D of the sensor-free
// circuit.
func (e *Estimator) NominalDelay() float64 { return e.nominalDelay }

// DelayOverhead returns c₂ = (D_BIC − D) / D of §3.2.
func (e *Estimator) DelayOverhead(dBIC float64) float64 {
	return (dBIC - e.nominalDelay) / e.nominalDelay
}

// TestTimeOverhead returns c₄ of §3.4. A test vector is applied, the
// slowest module's transient decays and its IDDQ is sensed, so the
// per-vector period is D'_BIC = D_BIC + max_i Δ(τ_i); the overhead is
// measured against the sensor-free per-vector period D.
func (e *Estimator) TestTimeOverhead(dBIC float64, mods []*Module) float64 {
	var settle float64
	for _, m := range mods {
		if m != nil && m.Settle > settle {
			settle = m.Settle
		}
	}
	return (dBIC + settle - e.nominalDelay) / e.nominalDelay
}
