// The exact-recompute oracle for incremental cost evaluation: random
// MoveGates sequences on a partition must leave every cached module term
// and every cost field bit-identical to a from-scratch evaluation of the
// same groups.

package partition_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"testing"

	"iddqsyn/internal/celllib"
	"iddqsyn/internal/circuits"
	"iddqsyn/internal/estimate"
	"iddqsyn/internal/partition"
	"iddqsyn/internal/standard"
)

// deltaCircuits are the oracle's circuits and their start module sizes;
// the fuzzer's first argument picks one. c7552 at module size 8 has ~590
// tiny modules, so a move touches a small share of the circuit and most
// of the D_BIC sweep's gates sit outside the touched modules. c1908 at
// its estimated module size (size 0) has a few large modules, whose
// dense seeds make the sweep recompute most positions.
var deltaCircuits = []struct {
	name string
	size int
}{{"c432", 8}, {"c880", 8}, {"c7552", 8}, {"c1908", 0}}

// deltaEstimators holds one lazily built estimator per circuit, so inputs
// that never pick c7552 do not pay for its build.
var deltaEstimators [4]struct {
	once sync.Once
	e    *estimate.Estimator
	err  error
}

// deltaEstimator returns the shared (immutable) estimator of circuit i.
func deltaEstimator(t *testing.T, i int) *estimate.Estimator {
	t.Helper()
	d := &deltaEstimators[i%len(deltaCircuits)]
	d.once.Do(func() {
		a, err := celllib.Annotate(circuits.MustISCAS85Like(deltaCircuits[i%len(deltaCircuits)].name), celllib.Default())
		if err != nil {
			d.err = err
			return
		}
		d.e = estimate.New(a, estimate.DefaultParams())
	})
	if d.err != nil {
		t.Fatal(d.err)
	}
	return d.e
}

// deltaStart returns the standard partition of circuit i at its oracle
// module size.
func deltaStart(t *testing.T, i int) *partition.Partition {
	t.Helper()
	e := deltaEstimator(t, i)
	w, cons := partition.PaperWeights(), partition.DefaultConstraints()
	size := deltaCircuits[i%len(deltaCircuits)].size
	if size == 0 {
		size = standard.EstimateModuleSize(e, w, cons)
	}
	p, err := partition.New(e, standard.StandardPartition(e, size), w, cons)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// opReader hands out the fuzz input one decision at a time; an exhausted
// input reads as zeros.
type opReader struct{ b []byte }

func (r *opReader) next(n int) int {
	if n <= 1 {
		return 0
	}
	if len(r.b) == 0 {
		return 0
	}
	v := int(r.b[0])
	r.b = r.b[1:]
	return v % n
}

// moduleTerms is a deep copy of one module's cached estimate. Its delays
// are the cached vector's once one is built, and computed gate by gate
// before, so taking them leaves the module as it was.
type moduleTerms struct {
	sep   int
	act   []int
	bits  [7]uint64
	delay []uint64 // degraded gate delays, as bits
}

func termsOf(e *estimate.Estimator, m *estimate.Module) moduleTerms {
	delay := make([]uint64, len(m.Gates))
	for i := range delay {
		delay[i] = math.Float64bits(e.GateDelay(m, i)) // builds no vector
	}
	return moduleTerms{
		sep:   m.Separation,
		delay: delay,
		act:   slices.Clone(m.Activity),
		bits: [7]uint64{
			math.Float64bits(m.IDDMax), math.Float64bits(m.Rs), math.Float64bits(m.Cs),
			math.Float64bits(m.Tau), math.Float64bits(m.SensorArea),
			math.Float64bits(m.LeakND), math.Float64bits(m.Settle),
		},
	}
}

func (a moduleTerms) equal(b moduleTerms) bool {
	return a.sep == b.sep && slices.Equal(a.act, b.act) && a.bits == b.bits && slices.Equal(a.delay, b.delay)
}

func costBits(cv partition.CostVector) [9]uint64 {
	return [9]uint64{
		math.Float64bits(cv.LogArea), math.Float64bits(cv.DelayOverhead),
		math.Float64bits(cv.LogSeparation), math.Float64bits(cv.TestTime),
		math.Float64bits(cv.Modules), math.Float64bits(cv.SensorArea),
		math.Float64bits(cv.DBIc), math.Float64bits(cv.DNominal),
		uint64(cv.Separation),
	}
}

// snapshot records every module's cached terms and the cost vector.
func snapshot(p *partition.Partition) ([]moduleTerms, [9]uint64) {
	terms := make([]moduleTerms, p.NumModules())
	for mi := range terms {
		terms[mi] = termsOf(p.E, p.ModuleEstimate(mi))
	}
	return terms, costBits(p.Costs())
}

// checkExact asserts that p's cached module terms and cost vector equal a
// from-scratch evaluation bit for bit.
func checkExact(t *testing.T, e *estimate.Estimator, p *partition.Partition, step int) {
	t.Helper()
	if err := p.Verify(); err != nil {
		t.Fatalf("step %d: %v", step, err)
	}
	for mi := 0; mi < p.NumModules(); mi++ {
		gates := p.AppendModuleGates(nil, mi)
		got := p.ModuleEstimate(mi)
		if want := e.SeparationModule(gates); got.Separation != want {
			t.Fatalf("step %d: module %d: S(M) = %d, recomputed %d", step, mi, got.Separation, want)
		}
		if want := e.TS.ActivityProfile(gates); !slices.Equal(got.Activity, want) {
			t.Fatalf("step %d: module %d: n(t) = %v, recomputed %v", step, mi, got.Activity, want)
		}
		if !termsOf(e, got).equal(termsOf(e, e.EvalModule(gates))) {
			t.Fatalf("step %d: module %d: cached estimate differs from EvalModule", step, mi)
		}
	}
	checkCosts(t, e, p, step)
}

// checkCosts asserts that p's cost bound is sound (checkBound), and that
// its cost vector, its cached worst discriminability and every arrival
// time and gate delay it keeps for the next incremental sweep equal a
// from-scratch evaluation of its groups bit for bit.
func checkCosts(t *testing.T, e *estimate.Estimator, p *partition.Partition, step int) {
	t.Helper()
	checkBound(t, e, p, step, fmt.Sprintf("step %d", step))
	fresh, err := partition.New(e, p.Groups(), p.W, p.Cons)
	if err != nil {
		t.Fatalf("step %d: rebuild: %v", step, err)
	}
	if got, want := p.Costs(), fresh.Costs(); costBits(got) != costBits(want) {
		t.Fatalf("step %d: incremental costs %+v, from scratch %+v", step, got, want)
	}
	if got, want := p.WorstDiscriminability(), fresh.WorstDiscriminability(); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("step %d: cached worst discriminability %v, from scratch %v", step, got, want)
	}
	for _, v := range []struct {
		what      string
		got, want []float64
	}{
		{"arrival time", p.ArrivalTimes(), fresh.ArrivalTimes()},
		{"gate delay", p.DelayTimes(), fresh.DelayTimes()},
	} {
		for i := range v.want {
			if math.Float64bits(v.got[i]) != math.Float64bits(v.want[i]) {
				t.Fatalf("step %d: %s at sweep position %d = %v, from scratch %v", step, v.what, i, v.got[i], v.want[i])
			}
		}
	}
}

// boundScales are the relative distances below the exact cost from which
// checkBound draws its middle limit: 0 and the smallest ones put the
// limit between a close bound and the cost, the largest below both.
var boundScales = [...]float64{0, 1e-12, 1e-9, 1e-6, 1e-3, 1}

// checkBound calls p.PenalisedCostAbove with the limits −Inf, a value
// drawn (from seed) at or below p's from-scratch PenalisedCost, and +Inf,
// in that order, so the first calls see p as it was. An exact answer must
// equal the from-scratch cost bit for bit; a bound must exceed its limit
// and must not exceed that cost; a partition without settled arrival
// times must answer exactly. what names the step.
func checkBound(t *testing.T, e *estimate.Estimator, p *partition.Partition, seed int, what string) {
	t.Helper()
	fresh, err := partition.New(e, p.Groups(), p.W, p.Cons)
	if err != nil {
		t.Fatalf("%s: rebuild: %v", what, err)
	}
	want := fresh.PenalisedCost()
	rng := rand.New(rand.NewSource(int64(seed)))
	drawn := want - math.Abs(want)*boundScales[rng.Intn(len(boundScales))]*rng.Float64()
	for _, limit := range []float64{math.Inf(-1), drawn, math.Inf(1)} {
		unsettled := p.SettledPages() == 0
		got, exact := p.PenalisedCostAbove(limit)
		switch {
		case exact && math.Float64bits(got) != math.Float64bits(want):
			t.Fatalf("%s: exact cost above %v is %v, from scratch %v", what, limit, got, want)
		case exact:
		case unsettled:
			t.Fatalf("%s: a partition without settled arrival times answered with a bound", what)
		case !(got > limit):
			t.Fatalf("%s: bound %v is not above its limit %v", what, got, limit)
		case !(got <= want):
			t.Fatalf("%s: bound %v exceeds the from-scratch cost %v", what, got, want)
		}
	}
}

// pickMove draws one MoveGates argument list from the input: a few
// boundary gates with repeats, or (kind 2) every gate of the source
// module, which deletes it. The target is a connected module when the
// first gate has one, any other module otherwise.
func pickMove(p *partition.Partition, r *opReader, kind int) (gates []int, from, to int) {
	from = r.next(p.NumModules())
	if kind == 2 {
		gates = p.AppendModuleGates(nil, from)
	} else {
		cand := p.BoundaryGates(from)
		if len(cand) == 0 {
			cand = p.AppendModuleGates(nil, from)
		}
		for n := 1 + r.next(3); n > 0; n-- {
			gates = append(gates, cand[r.next(len(cand))])
		}
	}
	if r.next(2) == 1 {
		gates = append(gates, gates[0]) // duplicate in the argument list
	}
	if targets := p.ConnectedModules(gates[0]); len(targets) > 0 {
		to = targets[r.next(len(targets))]
	} else {
		to = r.next(p.NumModules() - 1)
		if to >= from {
			to++
		}
	}
	return gates, from, to
}

// FuzzDeltaCost applies input-driven MoveGates sequences to a c432, c880
// or c7552 partition at module size 8, or a c1908 partition at its
// estimated module size, and checks every step against the from-scratch
// oracle. Each step's first byte picks what happens:
//   - 0-1: a few boundary gates move;
//   - 2: a whole module moves, which deletes it;
//   - 3: a clone moves; the parent's cached terms must stay exactly as
//     before, and the walk continues on the clone;
//   - 4: two moves with WorstDiscriminability between them, which refills
//     the first move's module estimates before Costs runs;
//   - 5: the evaluated parent is cloned twice and each clone moves
//     differently; both clones must match the oracle, the parent's terms
//     must stay as before, and the walk continues on the parent;
//   - 6, the first in an input: a chain of at least chainDepth
//     descendants of descendants. Each link clones the last descendant
//     twice, moves and evaluates both siblings, checks both costs against
//     the oracle and continues on one of them, so every link settles the
//     arrival times of an evaluated descendant that its own parent's other
//     child shares the vector of;
//   - 6, a later one: moves repeated between two modules of one partition
//     and of its clone, so that each edits the records it built in place
//     (checkOwnedEdits); the walk continues on the clone;
//   - 7: a family of clones that share records, index pages and arrival
//     vectors. Clones are made of the walk's partition and of earlier
//     clones, and moves (module deletions included) land on any member,
//     parent or clone, after the clones were made; a moved member is
//     evaluated at once, so cloning it later settles its arrival times.
//     Each clone must show its source's ModuleOf, Groups, cost bits,
//     arrival times and gate delays; each clone or move must leave those
//     of every other member as they were, and Verify must pass on every
//     member; the walk continues on one member.
//
// Every partition the oracle checks, every family member after every
// family step and a moved member before it is evaluated, also passes
// checkBound: PenalisedCostAbove's bound never exceeds the from-scratch
// cost, and its exact answers equal it.
func FuzzDeltaCost(f *testing.F) {
	f.Add(uint8(0), []byte{0, 3, 0, 1, 1, 0, 5, 2, 1, 1, 2, 4, 0, 0, 3, 7, 1, 2, 1, 0})
	f.Add(uint8(0), []byte{2, 0, 1, 0, 2, 1, 0, 0, 2, 5, 1, 1, 3, 2, 0, 0, 0, 1, 9, 2, 0, 3, 1})
	f.Add(uint8(1), []byte{1, 7, 2, 3, 9, 11, 1, 0, 3, 12, 0, 4, 1, 2, 17, 1, 2, 6, 0, 1, 0, 40, 2, 2, 1, 3})
	f.Add(uint8(1), []byte{3, 30, 1, 5, 0, 2, 2, 1, 1, 1, 0, 22, 2, 0, 1, 1, 3, 3, 0, 1, 2, 2, 0, 9, 0, 0})
	f.Add(uint8(1), []byte{2, 1, 1, 2, 2, 1, 2, 3, 0, 2, 4, 1, 2, 5, 0, 0, 0, 2, 1, 1})
	f.Add(uint8(0), []byte{4, 0, 3, 1, 1, 0, 0, 2, 9, 0, 0, 5, 5, 1, 4, 0, 0, 1, 7, 0, 1, 2, 3, 0, 1, 1})
	f.Add(uint8(1), []byte{5, 0, 2, 1, 1, 0, 0, 6, 0, 0, 0, 5, 2, 11, 0, 0, 0, 4, 1, 1, 2, 0, 0, 3, 0, 1})
	f.Add(uint8(2), []byte{0, 40, 1, 2, 0, 5, 0, 4, 0, 1, 1, 4, 0, 77, 2, 0, 0, 3, 5, 1, 200, 0, 0, 1, 0, 2, 9, 1, 0, 0})
	f.Add(uint8(2), chainInput(1, 458, 462, 468, 479, 486, 501, 505))
	f.Add(uint8(3), chainInput(2, 422, 428, 434, 441, 445, 452, 463, 476))
	f.Add(uint8(0), []byte{7, 5, 0, 0, 1, 0, 3, 2, 1, 0, 1, 1, 0, 2, 1, 0, 4, 0, 1, 0, 2, 0, 0, 1, 1, 0, 0, 3, 1, 2, 0, 1, 0})
	f.Add(uint8(1), []byte{7, 4, 0, 1, 1, 1, 2, 9, 0, 0, 0, 1, 0, 2, 2, 0, 1, 1, 1, 0, 5, 1, 0, 0, 2, 7, 1, 3, 0, 1, 2, 0})
	f.Add(uint8(2), []byte{7, 5, 0, 0, 1, 0, 90, 0, 1, 0, 3, 0, 1, 1, 2, 44, 0, 0, 1, 0, 1, 0, 2, 200, 1, 1, 0, 0, 1})
	// Op 7 clones the walk's partition, moves and evaluates the original
	// and clones it again, which settles it while the first clone shares
	// its arrival vector.
	f.Add(uint8(0), []byte{7, 1, 0, 1, 0, 0, 5, 0, 3, 0, 0, 0, 0, 2, 0, 1, 0, 0, 2, 1, 0})
	// A move, then op 7 clones the walk's partition and moves it again on
	// an index page the first move copied, which the clone now shares.
	f.Add(uint8(0), []byte{0, 36, 135, 43, 106, 49, 7, 2, 0, 0, 1, 0, 215, 255, 228, 88, 119, 68, 213, 235, 120, 62, 150, 150, 143, 137, 190, 130, 133, 101, 224, 126})
	f.Fuzz(func(t *testing.T, circuit uint8, ops []byte) {
		e := deltaEstimator(t, int(circuit))
		p := deltaStart(t, int(circuit))
		r := &opReader{b: ops}
		move := func(q *partition.Partition, kind, step int) {
			gates, from, to := pickMove(q, r, kind)
			if _, err := q.MoveGates(gates, from, to); err != nil {
				t.Fatalf("step %d: move %v %d->%d: %v", step, gates, from, to, err)
			}
		}
		const maxSteps = 48
		chained := false
		for step := 0; step < maxSteps && len(r.b) > 0 && p.NumModules() > 1; step++ {
			switch kind := r.next(8); kind {
			case 3:
				before, beforeCost := snapshot(p)
				child := p.Clone()
				move(child, kind, step)
				child.Costs()
				checkParent(t, p, before, beforeCost, step)
				p = child
			case 4:
				move(p, r.next(3), step)
				p.WorstDiscriminability()
				if p.NumModules() > 1 {
					move(p, r.next(3), step)
				}
			case 5:
				before, beforeCost := snapshot(p)
				a, b := p.Clone(), p.Clone()
				move(a, r.next(3), step)
				move(b, r.next(3), step)
				checkExact(t, e, a, step)
				checkExact(t, e, b, step)
				checkParent(t, p, before, beforeCost, step)
			case 6:
				if chained {
					p = checkOwnedEdits(t, e, p, r, step)
					break
				}
				chained = true
				p.Costs()
				for depth := chainDepth + r.next(8); depth > 0 && p.NumModules() > 1; depth-- {
					sib := [2]*partition.Partition{p.Clone(), p.Clone()}
					for _, q := range sib {
						move(q, r.next(2), step)
						checkCosts(t, e, q, step)
					}
					p = sib[r.next(2)]
				}
			case 7:
				family := []*partition.Partition{p}
				views := []view{viewOf(p)}
				for n := 2 + r.next(7); n > 0; n-- {
					if r.next(2) == 0 {
						src := r.next(len(family))
						family = append(family, family[src].Clone())
						views = append(views, views[src])
					} else if mi := r.next(len(family)); family[mi].NumModules() > 1 {
						move(family[mi], r.next(3), step)
						checkBound(t, e, family[mi], n, fmt.Sprintf("step %d: family step %d, moved member %d", step, n, mi))
						views[mi] = viewOf(family[mi]) // evaluates the moved member
					}
					for i, q := range family {
						what := fmt.Sprintf("step %d: family step %d, member %d", step, n, i)
						checkBound(t, e, q, n, what)
						checkView(t, q, views[i], what)
					}
				}
				p = family[r.next(len(family))]
			default:
				move(p, kind, step)
			}
			checkExact(t, e, p, step)
		}
	})
}

// shuttle moves one or two gates, drawn from r, from module from of q to
// module to, and then back from to to from, and so on, moves times in
// all. It returns the two modules' indices after the last move, with the
// last move's target first, and ok false, after which it moves no more,
// once a move deleted a module.
func shuttle(t *testing.T, q *partition.Partition, r *opReader, from, to, moves, step int) (int, int, bool) {
	t.Helper()
	for ; moves > 0; moves-- {
		src := q.AppendModuleGates(nil, from)
		gates := []int{src[r.next(len(src))]}
		if r.next(2) == 1 {
			gates = append(gates, src[r.next(len(src))]) // maybe a duplicate
		}
		k := q.NumModules()
		to2, err := q.MoveGates(gates, from, to)
		if err != nil {
			t.Fatalf("step %d: move %v %d->%d: %v", step, gates, from, to, err)
		}
		if q.NumModules() < k {
			return 0, 0, false
		}
		from, to = to2, from
	}
	return from, to, true
}

// checkOwnedEdits repeats moves on p and on a clone of it, and returns
// that clone. p first moves gates back and forth between two modules, so
// that it owns their unevaluated records, and is cloned twice:
//   - p moves between the two modules again, copying the records its
//     clones share once and then editing its copies in place; both clones
//     must still hold their groups, so Clone must have cleared p's marks;
//   - p's estimates of the two modules are taken and p moves between them
//     again; the estimates, which alias the records' gate lists and
//     profiles, must keep their gates and terms, so a record whose
//     estimate is cached must not be edited in place;
//   - one clone moves between two modules repeatedly; p and the other
//     clone must keep their groups, index entries, cost bits, arrival
//     times and gate delays bit for bit, and the moved clone must match
//     the oracle.
func checkOwnedEdits(t *testing.T, e *estimate.Estimator, p *partition.Partition, r *opReader, step int) *partition.Partition {
	t.Helper()
	gates, from, to := pickMove(p, r, 0)
	k := p.NumModules()
	to, err := p.MoveGates(gates, from, to)
	if err != nil {
		t.Fatalf("step %d: move %v %d->%d: %v", step, gates, from, to, err)
	}
	if p.NumModules() < k {
		return p
	}
	to, from, ok := shuttle(t, p, r, to, from, 1+r.next(3), step)
	a, b := p.Clone(), p.Clone()
	groups := p.Groups()
	if ok {
		to, from, ok = shuttle(t, p, r, to, from, 1+r.next(3), step)
	}
	for i, q := range []*partition.Partition{a, b} {
		if err := q.Verify(); err != nil {
			t.Fatalf("step %d: after its parent moved again, clone %d: %v", step, i, err)
		}
		if !slices.EqualFunc(q.Groups(), groups, slices.Equal) {
			t.Fatalf("step %d: after its parent moved again, clone %d's groups changed", step, i)
		}
	}
	if ok {
		held := []*estimate.Module{p.ModuleEstimate(from), p.ModuleEstimate(to)}
		var terms []moduleTerms
		var lists [][]int
		for _, m := range held {
			terms = append(terms, termsOf(e, m))
			lists = append(lists, slices.Clone(m.Gates))
		}
		shuttle(t, p, r, to, from, 1+r.next(3), step)
		for i, m := range held {
			if !slices.Equal(m.Gates, lists[i]) || !termsOf(e, m).equal(terms[i]) {
				t.Fatalf("step %d: moving p changed an estimate it handed out", step)
			}
		}
	}
	checkExact(t, e, p, step)
	parent, sibling := viewOf(p), viewOf(b)
	if a.NumModules() > 1 {
		gates, from, to := pickMove(a, r, 0)
		k := a.NumModules()
		if to, err = a.MoveGates(gates, from, to); err != nil {
			t.Fatalf("step %d: move %v %d->%d: %v", step, gates, from, to, err)
		}
		if a.NumModules() == k {
			shuttle(t, a, r, to, from, 1+r.next(4), step)
		}
	}
	what := fmt.Sprintf("step %d: after a clone moved repeatedly", step)
	checkView(t, p, parent, what+", its parent")
	checkView(t, b, sibling, what+", its sibling")
	return a
}

// chainDepth is the least number of links in FuzzDeltaCost's chain step.
const chainDepth = 30

// chainInput is a seed input for FuzzDeltaCost: one chain step followed
// by enough pseudo-random bytes (from seed) to give every link's two
// moves their own gates and targets. steps are the offsets at which the
// steps after the chain read their op bytes; each is reduced mod 7, so
// the tail runs ops 0-6 only (op 7 has seeds of its own).
func chainInput(seed int64, steps ...int) []byte {
	rng := rand.New(rand.NewSource(seed))
	b := make([]byte, 1, 512)
	b[0] = 6
	for len(b) < cap(b) {
		b = append(b, byte(rng.Intn(256)))
	}
	for _, i := range steps {
		b[i] %= 7
	}
	return b
}

// view is what cloning or moving one partition must not change in another
// that shares its module records, index pages and settled pages: every
// gate's module, the groups, the cost bits and the bits of the arrival
// times and gate delays per sweep position. Taking a view evaluates p.
type view struct {
	moduleOf []int
	groups   [][]int
	cost     [9]uint64
	arrival  []uint64
	delay    []uint64
}

func viewOf(p *partition.Partition) view {
	v := view{groups: p.Groups(), cost: costBits(p.Costs())}
	for g := range p.E.A.Circuit.NumGates() {
		v.moduleOf = append(v.moduleOf, p.ModuleOf(g))
	}
	for _, at := range p.ArrivalTimes() {
		v.arrival = append(v.arrival, math.Float64bits(at))
	}
	for _, d := range p.DelayTimes() {
		v.delay = append(v.delay, math.Float64bits(d))
	}
	return v
}

// checkView asserts that p still passes Verify and shows the view taken
// before another partition was cloned or moved; what names that step.
func checkView(t *testing.T, p *partition.Partition, before view, what string) {
	t.Helper()
	if err := p.Verify(); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	after := viewOf(p)
	for g, m := range before.moduleOf {
		if after.moduleOf[g] != m {
			t.Fatalf("%s: ModuleOf(%d) changed from %d to %d", what, g, m, after.moduleOf[g])
		}
	}
	if !slices.EqualFunc(before.groups, after.groups, slices.Equal) {
		t.Fatalf("%s: groups changed", what)
	}
	switch {
	case before.cost != after.cost:
		t.Fatalf("%s: cost bits changed", what)
	case !slices.Equal(before.arrival, after.arrival):
		t.Fatalf("%s: arrival times changed", what)
	case !slices.Equal(before.delay, after.delay):
		t.Fatalf("%s: gate delays changed", what)
	}
}

// checkParent asserts that p's cached terms and costs still equal a
// snapshot taken before its clones were moved.
func checkParent(t *testing.T, p *partition.Partition, before []moduleTerms, beforeCost [9]uint64, step int) {
	t.Helper()
	after, afterCost := snapshot(p)
	for mi := range before {
		if !before[mi].equal(after[mi]) {
			t.Fatalf("step %d: moving a clone changed the parent's module %d", step, mi)
		}
	}
	if beforeCost != afterCost {
		t.Fatalf("step %d: moving a clone changed the parent's costs", step)
	}
}

// moveRandomBoundary moves one random boundary gate of q into a connected
// module.
func moveRandomBoundary(q *partition.Partition, rng *rand.Rand) error {
	for attempt := 0; attempt < 64; attempt++ {
		from := rng.Intn(q.NumModules())
		cand := q.BoundaryGates(from)
		if len(cand) == 0 {
			continue
		}
		g := cand[rng.Intn(len(cand))]
		if targets := q.ConnectedModules(g); len(targets) > 0 {
			_, err := q.MoveGates([]int{g}, from, targets[rng.Intn(len(targets))])
			return err
		}
	}
	return errors.New("no boundary move found")
}

// mustMoveRandomBoundary is moveRandomBoundary, failing t on an error.
func mustMoveRandomBoundary(t *testing.T, q *partition.Partition, rng *rand.Rand) {
	t.Helper()
	if err := moveRandomBoundary(q, rng); err != nil {
		t.Fatal(err)
	}
}

// A chain of descendants of descendants on c7552 at module size 8: an
// evaluated descendant that was never cloned keeps no arrival times of
// its own but still points at its parent's settled pages; its first
// Clone settles a page list of its own, equal bit for bit to a
// from-scratch sweep, and its later clones share that list. The settle
// copies only the pages one move changed, so it keeps at least half of
// its parent's pages. Every evaluation must match the from-scratch
// oracle.
func TestDescendantChainArrivalLayout(t *testing.T) {
	e := deltaEstimator(t, 2)
	p := deltaStart(t, 2)
	p.Costs()
	rng := rand.New(rand.NewSource(1))
	for depth := 0; depth < chainDepth; depth++ {
		parentBase := p.ArrivalLayout()
		q := p.Clone()
		mustMoveRandomBoundary(t, q, rng)
		checkCosts(t, e, q, depth)
		if q.ArrivalLayout() != parentBase {
			t.Fatalf("depth %d: an evaluated, never-cloned descendant holds settled pages of its own", depth)
		}
		a := q.Clone()
		settled := q.ArrivalLayout()
		if settled == parentBase {
			t.Fatalf("depth %d: cloning an evaluated descendant left it on its parent's page list", depth)
		}
		checkCosts(t, e, q, depth)
		if shared, total := q.SharedPages(p), q.SettledPages(); shared*2 < total {
			t.Fatalf("depth %d: the settle shares %d of %d pages with its parent, want at least half", depth, shared, total)
		}
		if b := q.Clone(); a.ArrivalLayout() != settled || b.ArrivalLayout() != settled {
			t.Fatalf("depth %d: the clones of a settled descendant do not share its page list", depth)
		}
		p = a
	}
}

// maxCloneBytes bounds what one Clone of an evaluated c7552 partition at
// module size 8 allocates: the partition header, one pointer per module
// and one per page of the gate→module index, ~4.8 kB. A Clone that also
// copies the index itself and two words per module (~24.8 kB once) fails.
// maxDescendantBytes bounds one descendant step there (Clone, one
// boundary move, Cost, Release), ~6.9 kB. A descendant that also keeps its own
// arrival times, as a sparse patch merged on every evaluation (~10.6 kB),
// fails.
const maxCloneBytes, maxDescendantBytes = 8 << 10, 8 << 10

// meanAllocBytes returns what one call of f allocates, averaged over a
// batch of calls whose results stay reachable, as the descendant loop's
// do.
func meanAllocBytes(f func() *partition.Partition) uint64 {
	kept := make([]*partition.Partition, 64)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range kept {
		kept[i] = f()
	}
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(kept)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(len(kept))
}

// One Clone of an evaluated c7552 partition at module size 8 must
// allocate at most maxCloneBytes.
func TestCloneAllocBytes(t *testing.T) {
	p := deltaStart(t, 2)
	p.Costs()
	perClone := meanAllocBytes(p.Clone)
	t.Logf("Clone of %d modules: %d B", p.NumModules(), perClone)
	if perClone > maxCloneBytes {
		t.Errorf("one Clone allocates %d B, want <= %d", perClone, maxCloneBytes)
	}
}

// One descendant step of an evaluated c7552 partition at module size 8
// must allocate at most maxDescendantBytes. The step's evaluation sweeps
// in pooled scratch, which the race detector's sync.Pool drops at random,
// so the bound holds without it only.
func TestDescendantAllocBytes(t *testing.T) {
	if bi, _ := debug.ReadBuildInfo(); bi != nil && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"}) {
		t.Skip("sync.Pool drops pooled scratch at random under -race")
	}
	p := deltaStart(t, 2)
	p.Costs()
	rng := rand.New(rand.NewSource(4))
	step := func() *partition.Partition {
		q := p.Clone()
		mustMoveRandomBoundary(t, q, rng)
		q.Cost()
		q.Release() // as the generation loop releases every unselected descendant
		return q
	}
	perStep := meanAllocBytes(step)
	t.Logf("descendant step over %d modules: %d B", p.NumModules(), perStep)
	if perStep > maxDescendantBytes {
		t.Errorf("one descendant step allocates %d B, want <= %d", perStep, maxDescendantBytes)
	}
}

// Clones of one evaluated parent share its module records and arrival
// vector. Moving and evaluating eight of them on eight goroutines, and
// cloning the parent again afterwards, must write none of these: every
// cost, the parent's included, equals a from-scratch evaluation. Run it
// under the race detector.
func TestConcurrentDescendantsShareParent(t *testing.T) {
	e := deltaEstimator(t, 2)
	p := deltaStart(t, 2)
	p.Costs()
	rng := rand.New(rand.NewSource(2))
	// Descend one move and evaluate, so the first clone below settles
	// arrival times of the parent's own, which the clones then share.
	rootBase := p.ArrivalLayout()
	p = p.Clone()
	mustMoveRandomBoundary(t, p, rng)
	want := costBits(p.Costs())
	const workers = 8
	kids := make([]*partition.Partition, workers)
	for i := range kids {
		kids[i] = p.Clone()
	}
	if p.ArrivalLayout() == rootBase {
		t.Fatal("parent has no settled arrival times of its own to share")
	}
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for i, q := range kids {
		wg.Add(1)
		go func(i int, q *partition.Partition) {
			defer wg.Done()
			errs[i] = moveRandomBoundary(q, rand.New(rand.NewSource(int64(10+i))))
			q.PenalisedCost()
		}(i, q)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("clone %d: %v", i, err)
		}
	}
	if got := costBits(p.Costs()); got != want {
		t.Fatal("evaluating the clones changed the parent's cached costs")
	}
	checkCosts(t, e, p, 0)
	for i, q := range kids {
		checkCosts(t, e, q, i)
	}
	again := p.Clone()
	mustMoveRandomBoundary(t, again, rng)
	checkExact(t, e, again, workers)
}

// Clones of a parent with an unevaluated move share the move's two new
// module records before any of them has an estimate. Evaluating eight
// such clones on eight goroutines fills each shared record's estimate
// once: every clone must end up holding the same estimate for every
// module and costs equal to a from-scratch evaluation. Run it under the
// race detector.
func TestConcurrentEvaluationsShareRecordEstimates(t *testing.T) {
	e := deltaEstimator(t, 2)
	p := deltaStart(t, 2)
	p.Costs()
	mustMoveRandomBoundary(t, p, rand.New(rand.NewSource(3)))
	kids := make([]*partition.Partition, 8)
	for i := range kids {
		kids[i] = p.Clone()
	}
	var wg sync.WaitGroup
	for _, q := range kids {
		wg.Add(1)
		go func(q *partition.Partition) {
			defer wg.Done()
			q.PenalisedCost()
		}(q)
	}
	wg.Wait()
	for i, q := range kids {
		for mi := 0; mi < q.NumModules(); mi++ {
			if q.ModuleEstimate(mi) != p.ModuleEstimate(mi) {
				t.Fatalf("clone %d: module %d holds its own estimate, not the shared record's", i, mi)
			}
		}
		checkCosts(t, e, q, i)
	}
}

// A NaN or infinite cost comes back exact whatever the limit, so that an
// optimizer sees it and rejects it (ErrNonFiniteCost) rather than drop it
// as a bound above its limit. The weights below overflow the cost of
// every c432 descendant to +Inf, or make it NaN, while keeping the delay
// and test-time weights non-negative, under which a finite bound is used.
func TestNonFiniteCostIsExact(t *testing.T) {
	e := deltaEstimator(t, 0)
	start := deltaStart(t, 0)
	for _, tc := range []struct {
		name string
		w    partition.Weights
	}{
		{"+Inf", partition.Weights{Area: math.MaxFloat64, Delay: 1e5, TestTime: 1}},
		{"NaN", partition.Weights{Area: math.Inf(1), Delay: 1e5, TestTime: 1, Modules: math.Inf(-1)}},
	} {
		p, err := partition.New(e, start.Groups(), tc.w, start.Cons)
		if err != nil {
			t.Fatal(err)
		}
		p.Costs()
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < 8; i++ {
			q := p.Clone()
			mustMoveRandomBoundary(t, q, rng)
			if c, exact := q.PenalisedCostAbove(0); !exact || !math.IsNaN(c) && !math.IsInf(c, 1) {
				t.Fatalf("%s weights, descendant %d: cost %v, exact %v; want a non-finite exact cost", tc.name, i, c, exact)
			}
		}
	}
}
