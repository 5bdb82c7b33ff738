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
// and discards thousands of partitions per generation, so a clone copies
// O(modules + pages) words and a move copies only what it writes:
//   - each module is one pointer to an immutable record (stable id,
//     sorted gate set, S(M), n(t)) that also caches its estimate, so
//     clones share every unmodified record and every computed estimate;
//     MoveGates replaces the touched modules' records instead of editing
//     them;
//   - the gate→module index maps gates to module ids in fixed-size
//     pages; a clone copies the page pointers, and MoveGates copies a
//     page the first time it writes it after the partition was made or
//     last cloned. Ids ascend with the module index and survive the
//     deletion of other modules, so deleting a module never renumbers a
//     gate;
//   - the D_BIC arrival times and degraded gate delays per sweep
//     position are settled in immutable pages, shared with the
//     partition's clones, plus the modules touched since they were
//     computed. An evaluation copies the pages into pooled scratch,
//     writes the touched modules' delays and re-propagates from them, and
//     keeps that scratch only until the partition moves, is cloned or is
//     released; only a partition that is cloned after it was evaluated
//     settles pages of its own, from that scratch, copying only the pages
//     whose bits changed. Of the descendants a generation evaluates, only
//     the selected ones ever are. The evaluation's other terms come from
//     one walk over the module estimates, cached until the next move;
//   - a settle also records one longest path under the settled arrival
//     times. Summing a descendant's gate delays along its parent's path
//     bounds its D_BIC, and with it its cost, from below without a sweep,
//     so PenalisedCostAbove skips the sweep of a descendant whose bound
//     already exceeds the cost it must beat to be selected.
package partition

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

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

// moduleRecord is one module: its stable id, its gate set as ascending
// IDs and its §3 integer terms S(M) and n(t), counted once by New and
// kept exact by MoveGates' per-gate deltas. A record is immutable once
// built: MoveGates builds replacement records for the touched modules,
// so clones and cached estimates (whose Gates and Activity fields alias
// it) can share it safely.
type moduleRecord struct {
	id    int32
	gates []int
	sep   int
	act   []int
	// est caches the estimator output for these gates. Clones share the
	// record, so evaluations on different goroutines may fill it at once;
	// each computes the same bits and the first compare-and-swap wins.
	est atomic.Pointer[estimate.Module]
}

// The gate→module index stores each gate's module id in pages of
// pageSize consecutive gate IDs. A page is immutable once a partition
// can share it: Clone copies the page pointers only, and MoveGates
// writes to a fresh copy of each page the partition has not written
// since it was made or last cloned. A clone thus copies one pointer per
// page, and its moves one page per page they write. Of 64,
// 256 and 1024 gates per page, 64 allocated least and was as fast as
// 256 within the measurement's noise (see DESIGN.md §5).
const (
	pageShift = 6
	pageSize  = 1 << pageShift
)

// gatePage holds the module ids of pageSize consecutive gates: -1 for
// primary inputs and past the last gate.
type gatePage [pageSize]int32

// timePage holds the settled arrival times, or the settled degraded
// delays, of pageSize consecutive sweep positions; entries past the last
// position are 0. Like a gatePage it is immutable once a partition can
// share it.
type timePage [pageSize]float64

// Partition is a mutable partition of the circuit's logic gates with
// incremental cost evaluation.
type Partition struct {
	E    *estimate.Estimator
	W    Weights
	Cons Constraints

	// modules lists the module records in ascending id order; pages maps
	// each gate to its module's id. Clone copies both lists; the records
	// are never written in place, except for their estimate cache, and
	// neither is a page another partition may share. written marks, one
	// bit per page, the pages this partition copied since it was made or
	// last cloned, which no other partition holds: MoveGates writes those
	// in place. Clone clears the receiver's marks and gives the clone
	// none, so after a clone both copy a page before writing it. An index
	// of at most 64 pages (every ISCAS-85 circuit) keeps its marks in
	// writtenWord, so a clone that moves allocates none.
	modules     []*moduleRecord
	pages       []*gatePage
	written     []uint64
	writtenWord [1]uint64

	// settled pages the D_BIC arrival time and then the degraded gate
	// delay at each sweep position, under the modules as they were when
	// they were computed: the arrival pages first, then as many delay
	// pages (nil before the first evaluation). path is one longest path
	// under the settled arrival times, as ascending sweep positions: the
	// D_BIC lower bound of PenalisedCostAbove sums the current delays
	// along it. touched lists the modules, by current index, whose
	// estimates changed since — the seeds of the next incremental sweep.
	// touched is tracked here rather than read off nil estimates, because
	// ModuleEstimate refills those before Costs runs. Clones share the
	// page list, its pages and the path, so only settleArrival replaces
	// them, and nothing writes any of them in place.
	settled []*timePage
	path    []int32
	touched []int

	// walk is the module walk of the modules as they were at the last
	// walk; walked says whether they still are. cost is the cost vector
	// at the last exact evaluation; costValid says whether the modules
	// are still as they were then. swept holds that evaluation's swept
	// arrival times and delays while they differ from the settled ones,
	// so that a Clone settles them without sweeping again; a move or
	// Release returns it to the pool.
	walked    bool
	walk      moduleWalk
	costValid bool
	cost      CostVector
	swept     *costScratch
}

// moduleWalk is what one walk over the module estimates gives the cost:
// the sum of the sensor areas, the sum of S(M), the largest Δ(τ) and the
// least d(M).
type moduleWalk struct {
	area, settle float64
	sep          int
	worst        float64
}

// New builds a Partition from explicit gate groups. The groups must be
// non-empty, disjoint, contain only logic gates, and cover the circuit.
func New(e *estimate.Estimator, groups [][]int, w Weights, cons Constraints) (*Partition, error) {
	c := e.A.Circuit
	pages := make([]gatePage, (c.NumGates()+pageSize-1)/pageSize)
	p := &Partition{
		E: e, W: w, Cons: cons,
		pages: make([]*gatePage, len(pages)),
	}
	for i := range pages {
		for j := range pages[i] {
			pages[i][j] = -1
		}
		p.pages[i] = &pages[i]
	}
	covered := 0
	recs := make([]moduleRecord, len(groups))
	p.modules = make([]*moduleRecord, len(groups))
	for mi, gates := range groups {
		if len(gates) == 0 {
			return nil, fmt.Errorf("partition: module %d is empty", mi)
		}
		rec := &recs[mi]
		rec.id = int32(mi)
		rec.gates = make([]int, 0, len(gates))
		for _, g := range gates {
			if g < 0 || g >= c.NumGates() {
				return nil, fmt.Errorf("partition: gate %d out of range", g)
			}
			if c.Gates[g].Type == circuit.Input {
				return nil, fmt.Errorf("partition: module %d contains primary input %q", mi, c.Gates[g].Name)
			}
			if p.idOf(g) != -1 {
				return nil, fmt.Errorf("partition: gate %q assigned twice", c.Gates[g].Name)
			}
			rec.gates = append(rec.gates, g)
			p.pages[g>>pageShift][g&(pageSize-1)] = rec.id
			covered++
		}
		sort.Ints(rec.gates)
		p.modules[mi] = rec
	}
	if covered != c.NumLogicGates() {
		return nil, fmt.Errorf("partition: covers %d of %d logic gates", covered, c.NumLogicGates())
	}
	for _, rec := range p.modules {
		rec.sep, rec.act = e.ModuleCounts(rec.gates)
	}
	return p, nil
}

// idOf returns the id of gate g's module (-1 for primary inputs).
func (p *Partition) idOf(g int) int32 { return p.pages[g>>pageShift][g&(pageSize-1)] }

// indexOf returns the index of the module with the given id. Ids ascend
// with the index and deletions only remove ids, so the index is at most
// the id and a binary search over the module list finds it.
func (p *Partition) indexOf(id int32) int {
	lo, hi := 0, min(len(p.modules), int(id)+1)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if p.modules[mid].id < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// NumModules returns K.
func (p *Partition) NumModules() int { return len(p.modules) }

// AppendModuleGates appends the sorted gate IDs of module mi to dst and
// returns the extended slice; AppendModuleGates(nil, mi) is a fresh copy
// the caller may modify.
func (p *Partition) AppendModuleGates(dst []int, mi int) []int {
	return append(dst, p.modules[mi].gates...)
}

// ModuleSize returns the number of gates in module mi.
func (p *Partition) ModuleSize(mi int) int { return len(p.modules[mi].gates) }

// ModuleOf returns the module index of a gate (-1 for primary inputs).
func (p *Partition) ModuleOf(gate int) int {
	id := p.idOf(gate)
	if id < 0 {
		return -1
	}
	return p.indexOf(id)
}

// Groups returns the whole partition as gate-ID groups.
func (p *Partition) Groups() [][]int {
	out := make([][]int, len(p.modules))
	for i := range p.modules {
		out[i] = p.AppendModuleGates(nil, i)
	}
	return out
}

// ModuleEstimate returns the (cached) estimator output for module mi.
// The cache sits in the module's record, which clones share, so it is
// filled by compare-and-swap: concurrent evaluations of clones that share
// an unevaluated record compute the same bits, and all of them return
// the one that was stored first.
func (p *Partition) ModuleEstimate(mi int) *estimate.Module {
	rec := p.modules[mi]
	if m := rec.est.Load(); m != nil {
		return m
	}
	rec.est.CompareAndSwap(nil, p.E.FinishModule(rec.gates, rec.sep, rec.act))
	return rec.est.Load()
}

// Clone returns a deep copy sharing the immutable estimator. It copies
// one pointer per module and one per page of the gate→module index (and
// the touched list); module records, their cached estimates, index pages
// and the pages of settled arrival times and delays are shared
// copy-on-write style, so a clone's mutation never reaches its siblings or its parent,
// nor theirs the clone. An evaluated receiver with touched modules first
// settles its arrival times and delays, from the vectors its evaluation
// swept when it kept them (see Release), and every receiver forgets which
// index pages it may write in place, so Clone may write its receiver,
// never state a clone shares: a parent can be cloned while its earlier
// clones are moved or evaluated on other goroutines, but one partition
// must not be cloned on two goroutines at once.
func (p *Partition) Clone() *Partition {
	if p.costValid && len(p.touched) > 0 {
		sc := p.swept
		if sc == nil {
			sc = costScratchPool.Get().(*costScratch)
			p.sweepTimes(sc)
		}
		p.settleArrival(sc)
		p.swept = nil
		costScratchPool.Put(sc)
	}
	clear(p.written)
	return &Partition{
		E: p.E, W: p.W, Cons: p.Cons,
		modules:   append([]*moduleRecord(nil), p.modules...),
		pages:     append([]*gatePage(nil), p.pages...),
		settled:   p.settled,
		path:      p.path,
		touched:   append([]int(nil), p.touched...),
		walked:    p.walked,
		walk:      p.walk,
		costValid: p.costValid,
		cost:      p.cost,
	}
}

// Release returns the swept arrival times and delays that p's last exact
// evaluation kept for a later Clone to their pool. The generation loop
// releases every descendant it does not select, which is never cloned;
// releasing a partition that is cloned later only costs that Clone a
// sweep.
func (p *Partition) Release() {
	if p.swept != nil {
		costScratchPool.Put(p.swept)
		p.swept = nil
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
// whole, plus each page of the gate→module index that the moved gates
// sit on and that p has not copied since it was made or last cloned. The
// moved gates take the target's module id, which no deletion
// changes, so deleting the emptied source rewrites no gate entry.
func (p *Partition) MoveGates(gates []int, from, to int) (int, error) {
	if from == to {
		return to, fmt.Errorf("partition: move within module %d", from)
	}
	if from < 0 || from >= len(p.modules) || to < 0 || to >= len(p.modules) {
		return to, fmt.Errorf("partition: module index out of range (%d -> %d)", from, to)
	}
	sc, dc := p.modules[from], p.modules[to]
	for _, g := range gates {
		if p.idOf(g) != sc.id {
			return to, fmt.Errorf("partition: gate %d not in module %d", g, from)
		}
	}
	// Build replacement records rather than editing in place: the old
	// records may be shared with clones and with cached estimate.Module
	// values, both of which rely on them never changing.
	// The two profiles share one allocation; each is capped at its own
	// length, so neither can grow into the other.
	//lint:ignore hotalloc copy-on-write by design: cached estimates alias the old profiles as their Activity
	acts := make([]int, len(sc.act)+len(dc.act))
	srcAct, dstAct := acts[:len(sc.act):len(sc.act)], acts[len(sc.act):]
	copy(srcAct, sc.act)
	copy(dstAct, dc.act)
	rho, ts := p.E.P.Rho, p.E.TS
	srcSep, dstSep := sc.sep, dc.sep
	srcLen, dstLen := len(sc.gates), len(dc.gates)
	if p.written == nil {
		p.written = p.writtenWord[:]
		if words := (len(p.pages) + 63) / 64; words > len(p.writtenWord) {
			//lint:ignore hotalloc one bit per index page, once per clone that moves, on circuits of more than 64 pages only
			p.written = make([]uint64, words)
		}
	}
	for _, g := range gates {
		if p.idOf(g) == dc.id {
			continue // duplicate in the argument list
		}
		nearSrc, nearDst := 0, 0
		nbrs, weights := p.E.Neighborhood(g)
		for i, nb := range nbrs {
			m, near := p.idOf(int(nb)), int(weights[i])
			if m == sc.id {
				nearSrc += near
			}
			if m == dc.id {
				nearDst += near
			}
		}
		srcLen--
		srcSep -= rho*srcLen - nearSrc
		dstSep += rho*dstLen - nearDst
		dstLen++
		ts.AddActivity(srcAct, g, -1)
		ts.AddActivity(dstAct, g, 1)
		pg := g >> pageShift
		if bit := uint64(1) << (pg & 63); p.written[pg>>6]&bit == 0 {
			//lint:ignore hotalloc copy-on-write by design: clones may share the old page, so the first write since the last Clone goes to a copy
			fresh := new(gatePage)
			*fresh = *p.pages[pg]
			p.pages[pg] = fresh
			p.written[pg>>6] |= bit
		}
		p.pages[pg][g&(pageSize-1)] = dc.id
	}
	// One pass over the sorted source splits it into the gates that stay
	// and the moved ones, which merge into the sorted target. Like the
	// profiles, the two lists share one allocation, each capped at its
	// own length.
	//lint:ignore hotalloc copy-on-write by design: fresh, exactly-sized lists keep clones and cached estimates valid
	lists := make([]int, srcLen+dstLen)
	newSrc, newDst := lists[:srcLen:srcLen], lists[srcLen:]
	si, di, dj := 0, 0, 0
	for _, g := range sc.gates {
		if p.idOf(g) == sc.id {
			newSrc[si], si = g, si+1
			continue
		}
		for ; di < len(dc.gates) && dc.gates[di] < g; di, dj = di+1, dj+1 {
			newDst[dj] = dc.gates[di]
		}
		newDst[dj], dj = g, dj+1
	}
	copy(newDst[dj:], dc.gates[di:])
	//lint:ignore hotalloc copy-on-write by design: clones keep the old records; both new ones share one allocation
	recs := &[2]moduleRecord{
		{id: sc.id, gates: newSrc, sep: srcSep, act: srcAct},
		{id: dc.id, gates: newDst, sep: dstSep, act: dstAct},
	}
	p.modules[from], p.modules[to] = &recs[0], &recs[1]
	p.touch(from)
	p.touch(to)
	p.Release()
	p.walked, p.costValid = false, false
	if len(newSrc) == 0 {
		p.deleteModule(from)
		if to > from {
			to--
		}
	}
	return to, nil
}

// touch records module mi as changed since the settled arrival times and
// delays were computed.
func (p *Partition) touch(mi int) {
	if !slices.Contains(p.touched, mi) {
		//lint:ignore hotalloc a few words per descendant: Clone hands a clone an empty list, and settling truncates it for reuse
		p.touched = append(p.touched, mi)
	}
}

// deleteModule removes module mi from the module list and shifts the
// indices above it down in the touched list. Gates map to module ids,
// which the deletion leaves as they are.
func (p *Partition) deleteModule(mi int) {
	p.modules = slices.Delete(p.modules, mi, mi+1)
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
	rec := p.modules[mi]
	for _, g := range rec.gates {
		for _, nb := range c.Neighbors(g) {
			if p.idOf(nb) != rec.id {
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
// appended tail rather than a map. The scan and the sort run on module
// ids, which ascend with the indices, and only the distinct ids are then
// looked up.
func (p *Partition) AppendConnectedModules(dst []int, gate int) []int {
	c := p.E.A.Circuit
	own := p.idOf(gate)
	start := len(dst)
	for _, nb := range c.Neighbors(gate) {
		id := p.idOf(nb)
		if id < 0 || id == own || slices.Contains(dst[start:], int(id)) {
			continue
		}
		dst = append(dst, int(id))
	}
	sort.Ints(dst[start:])
	for i, id := range dst[start:] {
		dst[start+i] = p.indexOf(int32(id))
	}
	return dst
}

// Feasible evaluates Γ(Π): every module's discriminability must reach
// the constraint's minimum.
func (p *Partition) Feasible() bool {
	return p.WorstDiscriminability() >= p.Cons.MinDiscriminability
}

// WorstDiscriminability returns min_i d(Mᵢ), from the module walk: the
// cached one once the partition is evaluated, a fresh walk before.
func (p *Partition) WorstDiscriminability() float64 {
	if p.walked {
		return p.walk.worst
	}
	return p.walkModules().worst
}

// costScratch holds the transient buffers of one Costs evaluation or
// arrival settle: the estimates of the modules the sweep starts from and
// a copy of the settled pages the sweep works on. The descendant loop
// evaluates thousands of partitions per generation on a worker pool, so
// they are pooled instead of allocated per call. Nothing in them outlives
// the partition's next move, Clone or Release (the module pointers are
// cleared after each sweep).
type costScratch struct {
	changed []*estimate.Module
	times   []float64
}

var costScratchPool = sync.Pool{New: func() interface{} { return new(costScratch) }}

// walkModules walks the module estimates once: it sums the sensor areas
// and S(M) and takes the largest Δ(τ) and the least d(M).
func (p *Partition) walkModules() moduleWalk {
	w := moduleWalk{worst: math.Inf(1)}
	for mi := range p.modules {
		m := p.ModuleEstimate(mi)
		w.area += m.SensorArea
		w.sep += m.Separation
		if m.Settle > w.settle {
			w.settle = m.Settle
		}
		if d := m.Discriminability(p.E.P.IDDQth); d < w.worst {
			w.worst = d
		}
	}
	return w
}

// cachedWalk returns the module walk, walking the modules once per move.
func (p *Partition) cachedWalk() moduleWalk {
	if !p.walked {
		p.walk, p.walked = p.walkModules(), true
	}
	return p.walk
}

// costVector is the cost vector of the walked modules at the given D_BIC.
func (p *Partition) costVector(w moduleWalk, dBIC float64) CostVector {
	return CostVector{
		LogArea:       math.Log1p(w.area),
		DelayOverhead: p.E.DelayOverhead(dBIC),
		LogSeparation: math.Log1p(float64(w.sep)),
		TestTime:      p.E.TestTimeOverhead(dBIC, w.settle),
		Modules:       float64(len(p.modules)),
		SensorArea:    w.area,
		DBIc:          dBIC,
		DNominal:      p.E.NominalDelay(),
		Separation:    w.sep,
	}
}

// Costs evaluates the full cost vector, recomputing only invalidated
// modules. The logarithmic terms use log(1+x) so that degenerate
// partitions (all singleton modules have S = 0) stay finite; the paper's
// log(x) is undefined there and identical in shape everywhere else that
// matters. The module walk is cached until the next move. The first
// evaluation settles the arrival times and delays; a later one sweeps a
// pooled copy of them from the touched modules and keeps it, for a Clone
// to settle, until the partition moves, is cloned or is released.
func (p *Partition) Costs() CostVector {
	if p.costValid {
		return p.cost
	}
	w := p.cachedWalk()
	sc := costScratchPool.Get().(*costScratch)
	dBIC := p.sweepTimes(sc)
	switch {
	case p.settled == nil:
		p.settleArrival(sc)
		costScratchPool.Put(sc)
	case len(p.touched) > 0:
		p.swept = sc
	default:
		costScratchPool.Put(sc)
	}
	p.cost = p.costVector(w, dBIC)
	p.costValid = true
	return p.cost
}

// sweepTimes writes into sc.times p's arrival times and then its gate
// delays per sweep position under its current modules, each half padded
// to whole pages, and returns D_BIC. It starts from a copy of the settled
// pages with the touched modules changed, or before the first evaluation
// from zeros with every module changed.
func (p *Partition) sweepTimes(sc *costScratch) float64 {
	n := p.E.A.Circuit.NumGates()
	half := (n + pageSize - 1) &^ (pageSize - 1)
	if cap(sc.times) < 2*half {
		//lint:ignore hotalloc pool miss or a larger circuit only; steady-state cost evaluations reuse the pooled buffer
		sc.times = make([]float64, 2*half)
	}
	sc.times = sc.times[:2*half]
	changed := sc.changed[:0]
	if p.settled == nil {
		clear(sc.times)
		for mi := range p.modules {
			//lint:ignore hotalloc first evaluation of a partition only; later ones list its few touched modules in the pooled buffer
			changed = append(changed, p.ModuleEstimate(mi))
		}
	} else {
		for i, pg := range p.settled {
			copy(sc.times[i*pageSize:], pg[:])
		}
		for _, mi := range p.touched {
			//lint:ignore hotalloc pool miss only: a pooled buffer already holds a few touched modules
			changed = append(changed, p.ModuleEstimate(mi))
		}
	}
	dBIC := p.E.UpdateBICDelay(sc.times[:n:n], sc.times[half:half+n], changed)
	clear(changed)
	sc.changed = changed[:0]
	return dBIC
}

// settleArrival gives p settled arrival times and delays of its own, the
// ones sweepTimes just wrote into sc, and one longest path under them, and
// clears touched. A page whose bits equal the settled page it replaces is
// shared; every other page is a fresh copy, so the old pages stay as they
// were for the partitions that share them. Only a first evaluation, or a
// Clone of an evaluated partition, allocates pages: on c7552 at module
// size 8 a settle after one boundary move copies 15–53 of its 118 pages,
// 22 in the median.
func (p *Partition) settleArrival(sc *costScratch) {
	//lint:ignore hotalloc first evaluation, or a Clone of an evaluated partition, only: it keeps the page list the partition's clones share
	pages := make([]*timePage, len(sc.times)/pageSize)
	for i := range pages {
		src := (*timePage)(sc.times[i*pageSize:])
		if p.settled != nil && samePage(p.settled[i], src) {
			pages[i] = p.settled[i]
			continue
		}
		//lint:ignore hotalloc copy-on-write by design: clones share the old page, so a changed one is a copy
		pg := new(timePage)
		*pg = *src
		pages[i] = pg
	}
	p.settled, p.touched = pages, p.touched[:0]
	p.path = p.E.CriticalPath(sc.times[:p.E.A.Circuit.NumGates()])
}

// samePage reports whether two pages hold the same bits.
func samePage(a, b *timePage) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
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
// strategy and the annealers chase the same landscape. It is
// PenalisedCostAbove without a limit, so always exact.
func (p *Partition) PenalisedCost() float64 {
	c, _ := p.PenalisedCostAbove(math.Inf(1))
	return c
}

// PenalisedCostAbove returns PenalisedCost with exact true, unless a lower
// bound on it already exceeds limit: then it returns that bound with
// exact false, and D_BIC is not swept. A caller that keeps only
// candidates at or below limit can therefore drop the bound unseen. It
// writes only state p owns (its module estimates and cost caches), so
// independent clones can be evaluated on a worker pool.
//
// The bound is the cost at pathBound's D_BIC lower bound; the module walk,
// and with it the infeasibility penalty, is exact. The cost does not fall
// as D_BIC rises while the delay and test-time weights are not negative,
// so only then is the bound used, and only when it is finite: a NaN or
// infinite cost always comes back exact. A partition without settled
// arrival times (never evaluated, nor cloned from one that was) is always
// evaluated exactly.
//
//lint:hotpath cost of every evolution descendant and every annealing move — the estimate sweep underneath dominates run time
func (p *Partition) PenalisedCostAbove(limit float64) (cost float64, exact bool) {
	if !p.costValid && p.settled != nil && limit < math.Inf(1) && p.W.Delay >= 0 && p.W.TestTime >= 0 {
		bound := p.penalised(p.costVector(p.cachedWalk(), p.pathBound()))
		if bound > limit && !math.IsInf(bound, 1) {
			return bound, false
		}
	}
	return p.penalised(p.Costs()), true
}

// penalised returns cv's weighted cost plus the graded infeasibility
// penalty of the walked modules' worst discriminability.
func (p *Partition) penalised(cv CostVector) float64 {
	c := cv.Weighted(p.W)
	if worst := p.walk.worst; worst < p.Cons.MinDiscriminability {
		c += InfeasiblePenalty * (1 + math.Log(p.Cons.MinDiscriminability/worst))
	}
	return c
}

// pathBound returns a lower bound on D_BIC: the left-to-right float sum of
// p's current gate delays along its path, a longest path under its
// settled arrival times. A position in a touched module reads that
// module's new degraded delay, any other position the settled delay. By
// the argument of estimate.CriticalPath, the sum never exceeds D_BIC.
func (p *Partition) pathBound() float64 {
	delays := p.settled[len(p.settled)/2:]
	var sum float64
	for _, pos := range p.path {
		d := delays[pos>>pageShift][pos&(pageSize-1)]
		if len(p.touched) > 0 {
			g := p.E.GateAt(pos)
			id := p.idOf(g)
			for _, mi := range p.touched {
				if rec := p.modules[mi]; rec.id == id {
					i, _ := slices.BinarySearch(rec.gates, g)
					d = p.ModuleEstimate(mi).Delay[i]
					break
				}
			}
		}
		sum += d
	}
	return sum
}

// Verify checks the structural invariants (disjoint cover of all logic
// gates, module ids ascending with the index, every gate's index entry
// naming its module's id, ascending module gate lists, no empty modules)
// and returns the first violation. Used by tests and as a debugging aid.
func (p *Partition) Verify() error {
	c := p.E.A.Circuit
	seen := make(map[int]int)
	for mi, rec := range p.modules {
		if len(rec.gates) == 0 {
			return fmt.Errorf("module %d empty", mi)
		}
		if mi > 0 && rec.id <= p.modules[mi-1].id {
			return fmt.Errorf("module %d: id %d not above module %d's id %d", mi, rec.id, mi-1, p.modules[mi-1].id)
		}
		prev := -1
		for _, g := range rec.gates {
			if g <= prev {
				return fmt.Errorf("module %d gate list not ascending at gate %d", mi, g)
			}
			prev = g
			if p, dup := seen[g]; dup {
				return fmt.Errorf("gate %d in modules %d and %d", g, p, mi)
			}
			seen[g] = mi
			if id := p.idOf(g); id != rec.id {
				return fmt.Errorf("gate %d: index says module id %d, found in module %d (id %d)", g, id, mi, rec.id)
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
