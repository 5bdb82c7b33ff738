package estimate

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
	"time"

	"iddqsyn/internal/celllib"
	"iddqsyn/internal/chaos"
	"iddqsyn/internal/circuit"
	"iddqsyn/internal/electrical"
	"iddqsyn/internal/obs"
	"iddqsyn/internal/par"
)

// Metric names recorded by an observed estimator (see ForRun). Module
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
// annotated circuit. It is immutable after New and safe for concurrent
// use. The circuit's tables are built once; each run that wants its own
// telemetry or fault injector takes a view of them with ForRun, so any
// number of runs, concurrent or not, share one build.
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
	// compressed sparse rows: row g lists the logic gates within ρ−1 hops
	// of g (excluding g) in ascending ID order, and their weights ρ − d,
	// each in 1..ρ−1. The offsets nbrOff are global and cumulative; the
	// rows of each block of 64 gates sit in arrays of their own
	// (nbrRows[g>>6]), which that block's search fills alone.
	nbrOff  []int32
	nbrRows []hopRows

	// class numbers the distinct bit patterns of (A.Delay[g], A.Rg[g]),
	// so FinishModule computes the delay damping of §3.2 once per class
	// present in a module rather than once per gate; numClasses counts
	// them.
	class      []int32
	numClasses int

	// Telemetry handles, resolved once by ForRun; nil (no-op) when the
	// estimator is unobserved. The metrics themselves are atomic, so the
	// optimizer worker pools record through them without contention.
	evalCalls   *obs.Counter
	evalSeconds *obs.Histogram
	bicSweeps   *obs.Counter
	bicGates    *obs.Counter

	// Fault injector, attached by ForRun; nil in production. The
	// injector corrupts the estimator's own outputs (estimate.nan,
	// estimate.inf) so the numeric guards between here and the optimizers
	// can be exercised deterministically.
	chaos *chaos.Injector

	// scratch pools the transient buffers of EvalModule (current profile,
	// module membership mask) and of the D_BIC sweeps (BICDelay's
	// per-position delays and arrival times, UpdateBICDelay's frontier).
	// Both run millions of times per optimizer run on concurrent worker
	// pools, so these must not be allocated per call. Every view ForRun
	// makes shares the pool, whose buffers are sized for this circuit. Pool
	// contents never affect results: every entry a call reads is written
	// earlier in that call, except the primary inputs' delays, which are 0
	// in every buffer, and the mask and the frontier, which every call
	// leaves all clear.
	scratch *sync.Pool
}

// evalScratch is the transient working memory of one EvalModule or D_BIC
// sweep.
type evalScratch struct {
	prof     []float64 // current profile over the time grid
	mask     []bool    // module membership by gate ID; all false between uses
	delay    []float64 // degraded delay per sweep position, for BICDelay; always 0 at primary inputs
	arrival  []float64 // arrival time per sweep position, for BICDelay, whose caller keeps none
	frontier bitset    // sweep positions UpdateBICDelay has yet to recompute; all zero between uses
	damp     []float64 // delay damping per class; 0 = not computed yet
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
			frontier: make(bitset, e.A.Circuit.NumGates()/64+1),
			//lint:ignore hotalloc pool miss only
			damp: make([]float64, e.numClasses),
		}
	}
	return sc
}

// ForRun returns a view of e bound to one run: every EvalModule call
// increments MetricEvalModuleCalls in o and records its latency into
// MetricEvalModuleSeconds, every D_BIC sweep increments
// MetricBICDelaySweeps and adds the gates it recomputed to
// MetricBICDelayGates, and in poisons outputs at the estimate.nan and
// estimate.inf sites. The view is a shallow copy sharing every table and
// the scratch pool with e, which is left as it is. A nil o gives an
// unobserved view and a nil in (the default) an uninjected one, whatever
// handles e carries.
func (e *Estimator) ForRun(o *obs.Obs, in *chaos.Injector) *Estimator {
	v := *e
	v.evalCalls = o.Counter(MetricEvalModuleCalls)
	v.evalSeconds = o.Histogram(MetricEvalModuleSeconds, nil)
	v.bicSweeps = o.Counter(MetricBICDelaySweeps)
	v.bicGates = o.Counter(MetricBICDelayGates)
	v.chaos = in
	return &v
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
	e := &Estimator{P: p, A: a, TS: TransitionTimes(a.Circuit), scratch: new(sync.Pool)}
	c := a.Circuit
	e.class, e.numClasses = delayClasses(a)
	c.Levels() // built here, so concurrent FinishModule calls only read it
	e.dag = newSweepDAG(a)
	sc := e.getScratch()
	e.dag.sweep(e.dag.nominal, sc.arrival, 0)
	e.nominalDelay = e.dag.worst(sc.arrival)
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

// buildNeighborhoods fills the hop table by breadth-first searches from
// 64 sources at once (hopBlock.search), one per block of 64 consecutive
// gate IDs, each searched once. Scanning the gates in ascending ID order
// appends each to the rows of the sources that reach it, so every row
// comes out ascending, as AppendWithinHops lists it. A block's scan first
// counts its rows, then fills them into the block's own arrays, allocated
// at their exact sizes; nbrOff takes its prefix sum once every block is
// counted. The blocks are spread over runtime.GOMAXPROCS(0) goroutines
// (par.Each), and a row depends on its source alone, so the table is
// identical for any worker count.
func (e *Estimator) buildNeighborhoods() {
	c, rho := e.A.Circuit, e.P.Rho
	n := c.NumGates()
	if n > 0 {
		c.Neighbors(0) // builds the lazy adjacency cache, so the workers only read it
	}
	e.nbrOff = make([]int32, n+1)
	e.nbrRows = make([]hopRows, (n+63)/64)
	workers := make([]hopBlock, par.Workers(len(e.nbrRows)))
	par.Each(len(e.nbrRows), func(w, b int) {
		lo := b * 64
		levels := workers[w].search(c, lo, rho-1)
		count := e.nbrOff[lo+1 : min(lo+64, n)+1] // the block's row lengths, until the prefix sum
		for v := range n {
			for _, level := range levels {
				for srcs := level[v]; srcs != 0; srcs &= srcs - 1 {
					count[bits.TrailingZeros64(srcs)]++
				}
			}
		}
		var next [64]int32 // the next free entry of each row
		var total int32
		for row, k := range count {
			next[row] = total
			total += k
		}
		gate, weight := make([]int32, total), make([]uint8, total)
		for v := range n {
			for d, level := range levels {
				for srcs := level[v]; srcs != 0; srcs &= srcs - 1 {
					row := bits.TrailingZeros64(srcs)
					gate[next[row]], weight[next[row]] = int32(v), uint8(rho-1-d)
					next[row]++
				}
			}
		}
		e.nbrRows[b] = hopRows{gate, weight}
	})
	for g := range n {
		e.nbrOff[g+1] += e.nbrOff[g]
	}
}

// hopRows holds the hop table's rows of one block of 64 sources, in
// source order: row g spans nbrOff[g]−nbrOff[lo] to nbrOff[g+1]−nbrOff[lo]
// of both arrays, where lo is the block's first gate.
type hopRows struct {
	gate   []int32
	weight []uint8
}

// hopBlock is one worker's memory for the hop table's searches.
type hopBlock struct {
	reach  []uint64   // per gate, the block's sources within the hops searched so far
	levels [][]uint64 // per hop count d−1, per gate, the sources first at d hops
}

// search runs the breadth-first searches within k hops from the logic
// gates among lo..lo+63, one bit per source, and returns the levels: the
// entry of gate g in level d−1 holds the sources whose search first
// reaches g at d hops, as AppendWithinHops would find it, never the source
// itself. Levels after the first empty one are left out. The returned
// slices are h's and valid until its next search.
func (h *hopBlock) search(c *circuit.Circuit, lo, k int) [][]uint64 {
	n := c.NumGates()
	if h.reach == nil {
		h.reach = make([]uint64, n)
	}
	clear(h.reach)
	for s := lo; s < min(lo+64, n); s++ {
		if c.Gates[s].Type != circuit.Input {
			h.reach[s] = 1 << (s - lo)
		}
	}
	front := h.reach // read whole before the first level updates reach
	d := 0
	for ; d < k; d++ {
		if d == len(h.levels) {
			h.levels = append(h.levels, make([]uint64, n))
		}
		level := h.levels[d]
		clear(level)
		for u, srcs := range front {
			if srcs != 0 {
				for _, nb := range c.Neighbors(u) {
					level[nb] |= srcs
				}
			}
		}
		found := false
		for g, srcs := range level {
			srcs &^= h.reach[g]
			level[g] = srcs
			h.reach[g] |= srcs
			found = found || srcs != 0
		}
		if !found {
			break
		}
		front = level
	}
	return h.levels[:d]
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
	return e.SeparationModule(gates), e.TS.ActivityProfile(gates)
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
// Each pair is counted from its smaller gate g, in the window of g's row
// above g and up to the module's largest gate, found by binary search:
// the entries below it are counted from their own rows, and those above
// it cannot be module mates. The membership mask comes from the scratch
// pool and is cleared again on return, so pooled masks need no full clear
// between uses.
func (e *Estimator) SeparationModule(gates []int) int {
	if len(gates) < 2 {
		return 0
	}
	sc := e.getScratch()
	inModule := sc.mask
	top := int32(0)
	for _, g := range gates {
		inModule[g] = true
		top = max(top, int32(g))
	}
	rho := e.P.Rho
	pairs := len(gates) * (len(gates) - 1) / 2
	sum := rho * pairs
	for _, g := range gates {
		nbrs, weights := e.Neighborhood(g)
		i, _ := slices.BinarySearch(nbrs, int32(g))
		for ; i < len(nbrs) && nbrs[i] <= top; i++ {
			if inModule[nbrs[i]] {
				sum -= int(weights[i])
			}
		}
	}
	for _, g := range gates {
		inModule[g] = false
	}
	e.scratch.Put(sc)
	return sum
}

// Neighborhood returns the cached neighbourhood of gate g: the logic
// gates within ρ−1 hops of g (excluding g) in ascending ID order, and
// their weights ρ − d for hop distance d, each in 1..ρ−1. Every gate
// missing from it is ρ or more hops away (or unreachable) and weighs 0.
// The slices are shared; callers must not modify them.
func (e *Estimator) Neighborhood(g int) ([]int32, []uint8) {
	rows := &e.nbrRows[g>>6]
	base := e.nbrOff[g&^63]
	lo, hi := e.nbrOff[g]-base, e.nbrOff[g+1]-base
	return rows.gate[lo:hi:hi], rows.weight[lo:hi:hi]
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
// per-vector period is D'_BIC = D_BIC + settle, where settle is the
// largest Δ(τ_i) over the modules (their Settle fields); the overhead is
// measured against the sensor-free per-vector period D.
func (e *Estimator) TestTimeOverhead(dBIC, settle float64) float64 {
	return (dBIC + settle - e.nominalDelay) / e.nominalDelay
}
