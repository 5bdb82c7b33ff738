// Package partition implements the PART-IDDQ problem of §2: a partition
// Π = {M₁, ..., M_K} of the circuit's logic gates into disjoint modules,
// the feasibility constraint Γ(Π) (per-module discriminability d(Mᵢ) ≥ d;
// the virtual-rail perturbation limit r* holds by construction because
// every sensor is sized Rs = r*/îDD,max), and the weighted global cost
//
//	C(Π) = α₁·c₁ + α₂·c₂ + α₃·c₃ + α₄·c₄ + α₅·c₅
//
// with c₁ = log(sensor area), c₂ = delay overhead, c₃ = log(separation),
// c₄ = test-time overhead and c₅ = module count K.
//
// The representation is mutable and incremental: moving gates between
// modules invalidates only the touched modules' estimates, so the
// evolution algorithm of §4 can evaluate descendants cheaply ("costs are
// recomputed just for the modified modules"). The descendant loop clones
// and discards thousands of partitions per generation, so a descendant
// copies only what it changes: each module is one pointer to an immutable
// record (sorted gate set, S(M), n(t)) plus its cached estimate, and
// MoveGates replaces the touched modules' records instead of editing
// them, which lets Clone share every unmodified record and every cached
// estimate copy-on-write style. The D_BIC arrival times are likewise a
// shared immutable base vector plus a sorted sparse patch of the
// positions that differ from it.
package partition

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"iddqsyn/internal/circuit"
	"iddqsyn/internal/estimate"
)

// ErrNonFiniteCost reports that a partition's weighted cost evaluated to
// NaN or ±Inf — the sign of a numeric blow-up in the estimators, never a
// legitimately expensive partition (infeasible partitions are graded with
// a large but finite penalty). Optimizers check candidate costs against
// this so a poisoned estimate can neither win selection nor corrupt a
// checkpointed best.
var ErrNonFiniteCost = errors.New("partition: non-finite cost")

// Weights are the αᵢ of the global cost function.
type Weights struct {
	Area       float64 // α₁: log sensor area
	Delay      float64 // α₂: delay overhead fraction
	Separation float64 // α₃: log interconnection cost
	TestTime   float64 // α₄: test-time overhead fraction
	Modules    float64 // α₅: module count (test clock/output routing)
}

// PaperWeights returns the weight factors of §5:
// C(Π) = 9·c₁ + 10⁵·c₂ + c₃ + c₄ + 10·c₅.
func PaperWeights() Weights {
	return Weights{Area: 9, Delay: 1e5, Separation: 1, TestTime: 1, Modules: 10}
}

// Constraints holds the feasibility requirements Γ(Π) of §2.
type Constraints struct {
	// MinDiscriminability is d: every module must satisfy
	// IDDQ,th / IDDQ,nd,i ≥ d. The paper calls d > 1 mandatory and
	// 10 typical.
	MinDiscriminability float64
}

// DefaultConstraints returns d = 10, the paper's typical value.
func DefaultConstraints() Constraints {
	return Constraints{MinDiscriminability: 10}
}

// CostVector is the evaluated cost terms of one partition.
type CostVector struct {
	LogArea       float64 // c₁
	DelayOverhead float64 // c₂
	LogSeparation float64 // c₃
	TestTime      float64 // c₄
	Modules       float64 // c₅ (= K)

	SensorArea float64 // Σ sensor areas (linear, for Table 1)
	DBIc       float64 // absolute delay with sensors, s
	DNominal   float64 // absolute delay without sensors, s
	Separation int     // Σ S(Mₖ) (linear)
}

// Weighted returns C(Π) = Σ αᵢ·cᵢ.
func (cv CostVector) Weighted(w Weights) float64 {
	return w.Area*cv.LogArea +
		w.Delay*cv.DelayOverhead +
		w.Separation*cv.LogSeparation +
		w.TestTime*cv.TestTime +
		w.Modules*cv.Modules
}

// moduleState is one module of the partition: two words, so that Clone
// copies little per module. rec is the module's membership and integer
// terms; together with Partition.moduleOf it is the source of truth for
// membership. The record is immutable once assigned: MoveGates builds
// replacement records for the touched modules, so clones and cached
// estimates (whose Gates and Activity fields alias it) can share it
// safely.
type moduleState struct {
	rec *moduleRecord
	// est caches the estimator output; nil after a move touched this
	// module. Immutable once computed, so clones share it.
	est *estimate.Module
}

// moduleRecord is a module's gate set as ascending IDs and its §3 integer
// terms S(M) and n(t), counted once by New and kept exact by MoveGates'
// per-gate deltas.
type moduleRecord struct {
	gates []int
	sep   int
	act   []int
}

// patchEntry is one arrival time that differs from a partition's base
// vector: the arrival at sweep position pos.
type patchEntry struct {
	pos int32
	at  float64
}

// rebaseDiv bounds a partition's arrival patch: once the patch would
// hold more than 1/rebaseDiv of the positions, Costs stores a fresh full
// vector instead. A patch entry takes twice the bytes of a vector entry,
// so any rebaseDiv ≥ 2 keeps a patch smaller than the vector it stands
// for; 4 measured best (see DESIGN.md §5).
const rebaseDiv = 4

// Partition is a mutable partition of the circuit's logic gates with
// incremental cost evaluation.
type Partition struct {
	E    *estimate.Estimator
	W    Weights
	Cons Constraints

	modules  []moduleState
	moduleOf []int32 // gate ID -> module index; -1 for inputs (int32 halves what Clone copies)

	// The D_BIC arrival time at each sweep position as of the last Costs
	// evaluation is base, overridden at the ascending positions of patch;
	// base is nil before the first evaluation. Clones share both, so
	// neither is ever written in place: Costs builds a fresh patch, or a
	// fresh base once the patch grows past 1/rebaseDiv of the positions.
	// touched lists the modules, by current index, whose estimates
	// changed since those arrival times were computed — the seeds of the
	// next incremental sweep. It is tracked here rather than read off nil
	// estimates, because ModuleEstimate refills those before Costs runs.
	base    []float64
	patch   []patchEntry
	touched []int

	costValid bool
	cost      CostVector
}

// New builds a Partition from explicit gate groups. The groups must be
// non-empty, disjoint, contain only logic gates, and cover the circuit.
func New(e *estimate.Estimator, groups [][]int, w Weights, cons Constraints) (*Partition, error) {
	c := e.A.Circuit
	p := &Partition{
		E: e, W: w, Cons: cons,
		moduleOf: make([]int32, c.NumGates()),
	}
	for i := range p.moduleOf {
		p.moduleOf[i] = -1
	}
	covered := 0
	recs := make([]moduleRecord, len(groups))
	p.modules = make([]moduleState, len(groups))
	for mi, gates := range groups {
		if len(gates) == 0 {
			return nil, fmt.Errorf("partition: module %d is empty", mi)
		}
		rec := &recs[mi]
		rec.gates = make([]int, 0, len(gates))
		for _, g := range gates {
			if g < 0 || g >= c.NumGates() {
				return nil, fmt.Errorf("partition: gate %d out of range", g)
			}
			if c.Gates[g].Type == circuit.Input {
				return nil, fmt.Errorf("partition: module %d contains primary input %q", mi, c.Gates[g].Name)
			}
			if p.moduleOf[g] != -1 {
				return nil, fmt.Errorf("partition: gate %q assigned twice", c.Gates[g].Name)
			}
			rec.gates = append(rec.gates, g)
			p.moduleOf[g] = int32(mi)
			covered++
		}
		sort.Ints(rec.gates)
		p.modules[mi].rec = rec
	}
	if covered != c.NumLogicGates() {
		return nil, fmt.Errorf("partition: covers %d of %d logic gates", covered, c.NumLogicGates())
	}
	for _, ms := range p.modules {
		ms.rec.sep, ms.rec.act = e.ModuleCounts(ms.rec.gates)
	}
	return p, nil
}

// NumModules returns K.
func (p *Partition) NumModules() int { return len(p.modules) }

// AppendModuleGates appends the sorted gate IDs of module mi to dst and
// returns the extended slice; AppendModuleGates(nil, mi) is a fresh copy
// the caller may modify.
func (p *Partition) AppendModuleGates(dst []int, mi int) []int {
	return append(dst, p.modules[mi].rec.gates...)
}

// ModuleSize returns the number of gates in module mi.
func (p *Partition) ModuleSize(mi int) int { return len(p.modules[mi].rec.gates) }

// ModuleOf returns the module index of a gate (-1 for primary inputs).
func (p *Partition) ModuleOf(gate int) int { return int(p.moduleOf[gate]) }

// Groups returns the whole partition as gate-ID groups.
func (p *Partition) Groups() [][]int {
	out := make([][]int, len(p.modules))
	for i := range p.modules {
		out[i] = p.AppendModuleGates(nil, i)
	}
	return out
}

// ModuleEstimate returns the (cached) estimator output for module mi.
func (p *Partition) ModuleEstimate(mi int) *estimate.Module {
	ms := &p.modules[mi]
	if ms.est == nil {
		ms.est = p.E.FinishModule(ms.rec.gates, ms.rec.sep, ms.rec.act)
	}
	return ms.est
}

// Clone returns a deep copy sharing the immutable estimator. Module
// records, cached estimates and the arrival times are shared
// copy-on-write style: a move replaces the touched modules' records
// instead of editing them, and Costs stores a fresh patch or base, so a
// clone's mutation never reaches its siblings. The descendant loop of the
// evolution strategy clones every parent λ+χ times per generation, which
// makes this the optimizer's hottest allocation site — it allocates only
// the module list (two words per module) and the gate→module index (and
// the touched list when the parent has unevaluated moves).
func (p *Partition) Clone() *Partition {
	return &Partition{
		E: p.E, W: p.W, Cons: p.Cons,
		modules:   append([]moduleState(nil), p.modules...),
		moduleOf:  append([]int32(nil), p.moduleOf...),
		base:      p.base,
		patch:     p.patch,
		touched:   append([]int(nil), p.touched...),
		costValid: p.costValid,
		cost:      p.cost,
	}
}

// MoveGates moves the given gates from module `from` to module `to`,
// invalidating both modules' caches. If `from` empties, it is deleted and
// module indices above it shift down (the §4.2 mutation semantics: "if
// all gates of M are moved, this module is deleted"). It returns the
// possibly-adjusted index of the target module.
//
// The two modules' integer terms are updated per moved gate g rather than
// recounted: with N(g) the gates within ρ−1 hops of g and d the hop
// distance,
//
//	S(src) -= ρ·(|src|−1) − Σ_{n∈N(g)∩src} (ρ−d(g,n))
//	S(dst) += ρ·|dst|     − Σ_{n∈N(g)∩dst} (ρ−d(g,n))
//
// (sizes before g moves; a gate ρ or more hops away has its distance
// capped at ρ and adds 0, so N(g) and its cached weights ρ−d hold every
// non-zero term), and n(t) drops by one in src and rises by one in dst at
// each t ∈ T(g). Updating the terms therefore costs
// O(|N(g)| + |T(g)|) per moved gate instead of a recount of both modules;
// only the copy-on-write records' gate lists and profiles are copied
// whole.
func (p *Partition) MoveGates(gates []int, from, to int) (int, error) {
	if from == to {
		return to, fmt.Errorf("partition: move within module %d", from)
	}
	if from < 0 || from >= len(p.modules) || to < 0 || to >= len(p.modules) {
		return to, fmt.Errorf("partition: module index out of range (%d -> %d)", from, to)
	}
	src, dst := &p.modules[from], &p.modules[to]
	from32, to32 := int32(from), int32(to)
	for _, g := range gates {
		if p.moduleOf[g] != from32 {
			return to, fmt.Errorf("partition: gate %d not in module %d", g, from)
		}
	}
	// Build replacement records rather than editing in place: the old
	// records may be shared with clones and with cached estimate.Module
	// values, both of which rely on them never changing.
	// The two profiles share one allocation; each is capped at its own
	// length, so neither can grow into the other.
	sc, dc := src.rec, dst.rec
	//lint:ignore hotalloc copy-on-write by design: cached estimates alias the old profiles as their Activity
	acts := make([]int, len(sc.act)+len(dc.act))
	srcAct, dstAct := acts[:len(sc.act):len(sc.act)], acts[len(sc.act):]
	copy(srcAct, sc.act)
	copy(dstAct, dc.act)
	rho, ts := p.E.P.Rho, p.E.TS
	srcSep, dstSep := sc.sep, dc.sep
	srcLen, dstLen := len(sc.gates), len(dc.gates)
	for _, g := range gates {
		if p.moduleOf[g] == to32 {
			continue // duplicate in the argument list
		}
		nearSrc, nearDst := 0, 0
		nbrs, weights := p.E.Neighborhood(g)
		for i, nb := range nbrs {
			m, near := p.moduleOf[nb], int(weights[i])
			if m == from32 {
				nearSrc += near
			}
			if m == to32 {
				nearDst += near
			}
		}
		srcLen--
		srcSep -= rho*srcLen - nearSrc
		dstSep += rho*dstLen - nearDst
		dstLen++
		ts.AddActivity(srcAct, g, -1)
		ts.AddActivity(dstAct, g, 1)
		p.moduleOf[g] = to32
	}
	// One pass over the sorted source splits it into the gates that stay
	// and the moved ones, which merge into the sorted target.
	//lint:ignore hotalloc copy-on-write by design: a fresh, exactly-sized slice keeps clones and cached estimates valid
	newSrc := make([]int, 0, srcLen)
	//lint:ignore hotalloc copy-on-write by design (see newSrc above)
	newDst := make([]int, 0, dstLen)
	di := 0
	for _, g := range sc.gates {
		if p.moduleOf[g] == from32 {
			newSrc = append(newSrc, g)
			continue
		}
		for ; di < len(dc.gates) && dc.gates[di] < g; di++ {
			newDst = append(newDst, dc.gates[di])
		}
		newDst = append(newDst, g)
	}
	newDst = append(newDst, dc.gates[di:]...)
	//lint:ignore hotalloc copy-on-write by design: clones keep the old records; both new ones share one allocation
	recs := &[2]moduleRecord{{newSrc, srcSep, srcAct}, {newDst, dstSep, dstAct}}
	src.rec, src.est = &recs[0], nil
	dst.rec, dst.est = &recs[1], nil
	p.touch(from)
	p.touch(to)
	p.costValid = false
	if len(newSrc) == 0 {
		p.deleteModule(from)
		if to > from {
			to--
		}
	}
	return to, nil
}

// touch records module mi as changed since the arrival times were
// computed.
func (p *Partition) touch(mi int) {
	if !slices.Contains(p.touched, mi) {
		//lint:ignore hotalloc a few words per descendant: Clone hands a clone an empty list, and Costs truncates it for reuse
		p.touched = append(p.touched, mi)
	}
}

// deleteModule removes module mi, shifting the indices above it down in
// moduleOf and in the touched list.
func (p *Partition) deleteModule(mi int) {
	p.modules = slices.Delete(p.modules, mi, mi+1)
	for g, m := range p.moduleOf {
		if m > int32(mi) {
			p.moduleOf[g] = m - 1
		}
	}
	kept := 0
	for _, t := range p.touched {
		if t == mi {
			continue
		}
		if t > mi {
			t--
		}
		p.touched[kept] = t
		kept++
	}
	p.touched = p.touched[:kept]
}

// BoundaryGates returns the gates of module mi directly connected (in the
// undirected logic graph) to a gate outside mi — the mutation candidates
// of §4.2.
func (p *Partition) BoundaryGates(mi int) []int {
	return p.AppendBoundaryGates(nil, mi)
}

// AppendBoundaryGates appends module mi's boundary gates to dst and
// returns the extended slice — the allocation-free variant of
// BoundaryGates for the optimizers' move loops, which call it once per
// attempted mutation.
func (p *Partition) AppendBoundaryGates(dst []int, mi int) []int {
	c := p.E.A.Circuit
	for _, g := range p.modules[mi].rec.gates {
		for _, nb := range c.Neighbors(g) {
			if p.moduleOf[nb] != int32(mi) {
				dst = append(dst, g)
				break
			}
		}
	}
	return dst
}

// ConnectedModules returns the distinct modules (≠ the gate's own) that a
// gate is directly connected to — the legal mutation targets of §4.2.
func (p *Partition) ConnectedModules(gate int) []int {
	return p.AppendConnectedModules(nil, gate)
}

// AppendConnectedModules appends the gate's connected modules to dst and
// returns the extended slice (ascending, deduplicated). The candidate set
// is a handful of modules, so deduplication is a linear scan of the
// appended tail rather than a map.
func (p *Partition) AppendConnectedModules(dst []int, gate int) []int {
	c := p.E.A.Circuit
	own := p.moduleOf[gate]
	start := len(dst)
	for _, nb := range c.Neighbors(gate) {
		m := int(p.moduleOf[nb])
		if m < 0 || m == int(own) {
			continue
		}
		dup := false
		for _, seen := range dst[start:] {
			if seen == m {
				dup = true
				break
			}
		}
		if !dup {
			dst = append(dst, m)
		}
	}
	sort.Ints(dst[start:])
	return dst
}

// Feasible evaluates Γ(Π): every module's discriminability must reach
// the constraint's minimum.
func (p *Partition) Feasible() bool {
	return p.WorstDiscriminability() >= p.Cons.MinDiscriminability
}

// WorstDiscriminability returns min_i d(Mᵢ).
func (p *Partition) WorstDiscriminability() float64 {
	worst := math.Inf(1)
	for mi := range p.modules {
		if d := p.ModuleEstimate(mi).Discriminability(p.E.P.IDDQth); d < worst {
			worst = d
		}
	}
	return worst
}

// costScratch holds the transient buffers of one Costs evaluation: the
// module list, the arrival times the sweep works on and the positions it
// changed. The descendant loop evaluates thousands of partitions per
// generation on a worker pool, so they are pooled instead of allocated
// per call; nothing in them survives the call (the module pointers are
// cleared before the scratch is returned).
type costScratch struct {
	mods    []*estimate.Module
	arrival []float64
	changed []int32
}

var costScratchPool = sync.Pool{New: func() interface{} { return new(costScratch) }}

// Costs evaluates the full cost vector, recomputing only invalidated
// modules. The logarithmic terms use log(1+x) so that degenerate
// partitions (all singleton modules have S = 0) stay finite; the paper's
// log(x) is undefined there and identical in shape everywhere else that
// matters.
func (p *Partition) Costs() CostVector {
	if p.costValid {
		return p.cost
	}
	sc := costScratchPool.Get().(*costScratch)
	if cap(sc.mods) < len(p.modules) {
		//lint:ignore hotalloc pool miss or module-count growth only; steady-state cost evaluations reuse the pooled buffer
		sc.mods = make([]*estimate.Module, len(p.modules))
	}
	if n := len(p.moduleOf); cap(sc.arrival) < n {
		//lint:ignore hotalloc pool miss or a larger circuit only; steady-state cost evaluations reuse the pooled buffers
		sc.arrival, sc.changed = make([]float64, n), make([]int32, 0, n)
	}
	mods := sc.mods[:len(p.modules)]
	var areaSum float64
	sepSum := 0
	for mi := range p.modules {
		m := p.ModuleEstimate(mi)
		mods[mi] = m
		areaSum += m.SensorArea
		sepSum += m.Separation
	}
	dBIC := p.updateArrival(sc, mods)
	cv := CostVector{
		LogArea:       math.Log1p(areaSum),
		DelayOverhead: p.E.DelayOverhead(dBIC),
		LogSeparation: math.Log1p(float64(sepSum)),
		TestTime:      p.E.TestTimeOverhead(dBIC, mods),
		Modules:       float64(len(p.modules)),
		SensorArea:    areaSum,
		DBIc:          dBIC,
		DNominal:      p.E.NominalDelay(),
		Separation:    sepSum,
	}
	for i := range mods {
		mods[i] = nil
	}
	costScratchPool.Put(sc)
	p.cost = cv
	p.costValid = true
	return cv
}

// updateArrival re-propagates the arrival times from the touched modules'
// gates and returns D_BIC. Clones may share the base and the patch, so
// the sweep runs on a pooled copy of both; the partition then keeps its
// old patch merged with the positions the sweep changed.
func (p *Partition) updateArrival(sc *costScratch, mods []*estimate.Module) float64 {
	var dBIC float64
	if p.base == nil {
		//lint:ignore hotalloc first evaluation of a partition only
		base := make([]float64, len(p.moduleOf))
		dBIC, sc.changed = p.E.UpdateBICDelay(base, mods, nil, sc.changed[:0]) // sweep every gate
		p.base = base
		return dBIC
	}
	arrival := sc.arrival[:len(p.base)]
	copy(arrival, p.base)
	for _, pe := range p.patch {
		arrival[pe.pos] = pe.at
	}
	dBIC, sc.changed = p.E.UpdateBICDelay(arrival, mods, p.touched, sc.changed[:0])
	p.touched = p.touched[:0]
	if len(sc.changed) > 0 {
		p.base, p.patch = p.mergePatch(arrival, sc.changed)
	}
	return dBIC
}

// mergePatch returns the partition's new base and patch: the old patch's
// positions merged with the ascending changed positions, each holding its
// time in arrival — or, once that patch would hold more than 1/rebaseDiv
// of the positions, a copy of arrival as the new base and no patch.
func (p *Partition) mergePatch(arrival []float64, changed []int32) ([]float64, []patchEntry) {
	old := p.patch
	size, i, j := 0, 0, 0
	for ; i < len(old) && j < len(changed); size++ {
		switch {
		case old[i].pos < changed[j]:
			i++
		case old[i].pos > changed[j]:
			j++
		default:
			i, j = i+1, j+1
		}
	}
	size += len(old) - i + len(changed) - j
	if size*rebaseDiv > len(arrival) {
		//lint:ignore hotalloc copy-on-write by design: the evaluated partition retains its arrival times, and clones share the old base
		return append([]float64(nil), arrival...), nil
	}
	//lint:ignore hotalloc copy-on-write by design: clones share the old patch; this one is exactly sized
	patch := make([]patchEntry, 0, size)
	i, j = 0, 0
	for i < len(old) || j < len(changed) {
		var pos int32
		switch {
		case j == len(changed) || i < len(old) && old[i].pos < changed[j]:
			pos, i = old[i].pos, i+1
		case i == len(old) || changed[j] < old[i].pos:
			pos, j = changed[j], j+1
		default:
			pos, i, j = changed[j], i+1, j+1
		}
		patch = append(patch, patchEntry{pos, arrival[pos]})
	}
	return p.base, patch
}

// Cost returns the weighted global cost C(Π).
func (p *Partition) Cost() float64 {
	return p.Costs().Weighted(p.W)
}

// InfeasiblePenalty grades constraint violations: Γ(Π) is a hard
// constraint in the paper, but an all-infeasible population needs a
// gradient towards feasibility, so a violation adds a penalty that
// dominates every regular cost term yet still orders partitions by how
// far their worst module is from the required discriminability.
const InfeasiblePenalty = 1e9

// PenalisedCost is the cost both optimizers minimise: the weighted global
// cost C(Π) plus the graded infeasibility penalty, so the evolution
// strategy and the annealers chase the same landscape. It writes only
// state p owns (its module estimates and cost cache), so independent
// clones can be evaluated on a worker pool.
//
//lint:hotpath cost of every evolution descendant and every annealing move — the estimate sweep underneath dominates run time
func (p *Partition) PenalisedCost() float64 {
	c := p.Cost()
	if worst := p.WorstDiscriminability(); worst < p.Cons.MinDiscriminability {
		c += InfeasiblePenalty * (1 + math.Log(p.Cons.MinDiscriminability/worst))
	}
	return c
}

// Verify checks the structural invariants (disjoint cover of all logic
// gates, consistent moduleOf, ascending module gate lists, no empty
// modules) and returns the first violation. Used by tests and as a
// debugging aid.
func (p *Partition) Verify() error {
	c := p.E.A.Circuit
	seen := make(map[int]int)
	for mi, ms := range p.modules {
		if len(ms.rec.gates) == 0 {
			return fmt.Errorf("module %d empty", mi)
		}
		prev := -1
		for _, g := range ms.rec.gates {
			if g <= prev {
				return fmt.Errorf("module %d gate list not ascending at gate %d", mi, g)
			}
			prev = g
			if p, dup := seen[g]; dup {
				return fmt.Errorf("gate %d in modules %d and %d", g, p, mi)
			}
			seen[g] = mi
			if p.moduleOf[g] != int32(mi) {
				return fmt.Errorf("gate %d: moduleOf says %d, found in %d", g, p.moduleOf[g], mi)
			}
			if c.Gates[g].Type == circuit.Input {
				return fmt.Errorf("primary input %d in module %d", g, mi)
			}
		}
	}
	if len(seen) != c.NumLogicGates() {
		return fmt.Errorf("covers %d of %d gates", len(seen), c.NumLogicGates())
	}
	return nil
}

// String summarises the partition.
func (p *Partition) String() string {
	cv := p.Costs()
	return fmt.Sprintf("partition: K=%d area=%.4g delay+%.3g%% test+%.3g%% sep=%d C=%.6g feasible=%v",
		len(p.modules), cv.SensorArea, 100*cv.DelayOverhead, 100*cv.TestTime,
		cv.Separation, p.Cost(), p.Feasible())
}
