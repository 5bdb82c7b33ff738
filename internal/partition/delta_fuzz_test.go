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

// moduleTerms is a deep copy of one module's cached estimate.
type moduleTerms struct {
	sep   int
	act   []int
	bits  [7]uint64
	delay []uint64 // degraded gate delays, as bits
}

func termsOf(m *estimate.Module) moduleTerms {
	delay := make([]uint64, len(m.Delay))
	for i, d := range m.Delay {
		delay[i] = math.Float64bits(d)
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
		terms[mi] = termsOf(p.ModuleEstimate(mi))
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
		if !termsOf(got).equal(termsOf(e.EvalModule(gates))) {
			t.Fatalf("step %d: module %d: cached estimate differs from EvalModule", step, mi)
		}
	}
	checkCosts(t, e, p, step)
}

// checkCosts asserts that p's cost vector and every arrival time it
// keeps for the next incremental sweep equal a from-scratch evaluation of
// its groups bit for bit.
func checkCosts(t *testing.T, e *estimate.Estimator, p *partition.Partition, step int) {
	t.Helper()
	fresh, err := partition.New(e, p.Groups(), p.W, p.Cons)
	if err != nil {
		t.Fatalf("step %d: rebuild: %v", step, err)
	}
	if got, want := p.Costs(), fresh.Costs(); costBits(got) != costBits(want) {
		t.Fatalf("step %d: incremental costs %+v, from scratch %+v", step, got, want)
	}
	got, want := p.ArrivalTimes(), fresh.ArrivalTimes()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("step %d: arrival time at sweep position %d = %v, from scratch %v", step, i, got[i], want[i])
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
//   - 6 (once per input; later ones act as 0): a chain of at least
//     chainDepth descendants of descendants. Each link clones the last
//     descendant twice, moves and evaluates both siblings, checks both
//     costs against the oracle and continues on one of them, so the
//     arrival-time patch grows, rebases to a fresh base and is shared by
//     the siblings of every link;
//   - 7: a family of clones that share records and index pages. Clones
//     are made of the walk's partition and of earlier clones, and moves
//     (module deletions included) land on any member, parent or clone,
//     after the clones were made. Each move must leave every other
//     member's ModuleOf, Groups and cost bits as they were, and Verify
//     must pass on the moved member and on each other one; the walk
//     continues on one member.
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
					move(p, 0, step)
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
				for n := 2 + r.next(7); n > 0; n-- {
					if r.next(2) == 0 {
						family = append(family, family[r.next(len(family))].Clone())
						continue
					}
					mi := r.next(len(family))
					if family[mi].NumModules() < 2 {
						continue
					}
					before := make([]view, len(family))
					for i, q := range family {
						if i != mi {
							before[i] = viewOf(q)
						}
					}
					move(family[mi], r.next(3), step)
					if err := family[mi].Verify(); err != nil {
						t.Fatalf("step %d: moved family member %d: %v", step, mi, err)
					}
					for i, q := range family {
						if i != mi {
							checkView(t, q, before[i], fmt.Sprintf("step %d: moving family member %d, member %d", step, mi, i))
						}
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

// view is what moving one partition must not change in another that
// shares its module records and index pages: every gate's module, the
// groups and the cost bits.
type view struct {
	moduleOf []int
	groups   [][]int
	cost     [9]uint64
}

func viewOf(p *partition.Partition) view {
	v := view{groups: p.Groups(), cost: costBits(p.Costs())}
	for g := range p.E.A.Circuit.NumGates() {
		v.moduleOf = append(v.moduleOf, p.ModuleOf(g))
	}
	return v
}

// checkView asserts that p still passes Verify and shows the view taken
// before another partition moved; what names the move.
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
	if before.cost != after.cost {
		t.Fatalf("%s: cost bits changed", what)
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

// A chain of descendants of descendants on c7552 at module size 8 must
// take every path of the arrival-time layout within chainDepth links — a
// patch that grows on an inherited base, a rebase to a fresh base, and
// two siblings whose patches sit on one shared base — and every
// evaluation must match the from-scratch oracle.
func TestDescendantChainArrivalLayout(t *testing.T) {
	e := deltaEstimator(t, 2)
	p := deltaStart(t, 2)
	p.Costs()
	rng := rand.New(rand.NewSource(1))
	var grew, rebased, shared bool
	for depth := 0; depth < chainDepth && !(grew && rebased && shared); depth++ {
		parentBase, parentPatch := p.ArrivalLayout()
		a, b := p.Clone(), p.Clone()
		mustMoveRandomBoundary(t, a, rng)
		mustMoveRandomBoundary(t, b, rng)
		checkCosts(t, e, a, depth)
		checkCosts(t, e, b, depth)
		aBase, aPatch := a.ArrivalLayout()
		bBase, bPatch := b.ArrivalLayout()
		grew = grew || aBase == parentBase && aPatch > parentPatch && parentPatch > 0
		rebased = rebased || aBase != parentBase
		shared = shared || aBase == bBase && aPatch > 0 && bPatch > 0
		p = a
	}
	if !grew || !rebased || !shared {
		t.Fatalf("chain of %d: patch grew %v, rebased %v, siblings shared a base %v; want all", chainDepth, grew, rebased, shared)
	}
}

// maxCloneBytes bounds what one Clone of an evaluated c7552 partition at
// module size 8 allocates: the partition header, one pointer per module
// and one per page of the gate→module index, ~4.8 kB. A Clone that also
// copies the index itself and two words per module (~24.8 kB once) fails.
const maxCloneBytes = 8 << 10

// One Clone of an evaluated c7552 partition at module size 8 must
// allocate at most maxCloneBytes, averaged over a batch of clones that
// stay reachable, as the descendant loop's do.
func TestCloneAllocBytes(t *testing.T) {
	p := deltaStart(t, 2)
	p.Costs()
	clones := make([]*partition.Partition, 64)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range clones {
		clones[i] = p.Clone()
	}
	runtime.ReadMemStats(&after)
	perClone := (after.TotalAlloc - before.TotalAlloc) / uint64(len(clones))
	t.Logf("Clone of %d modules: %d B", p.NumModules(), perClone)
	if perClone > maxCloneBytes {
		t.Errorf("one Clone allocates %d B, want <= %d", perClone, maxCloneBytes)
	}
	runtime.KeepAlive(clones)
}

// Clones of one evaluated parent share its module records, base vector
// and patch. Moving and evaluating eight of them on eight goroutines, and
// cloning the parent again afterwards, must write none of these: every
// cost, the parent's included, equals a from-scratch evaluation. Run it
// under the race detector.
func TestConcurrentDescendantsShareParent(t *testing.T) {
	e := deltaEstimator(t, 2)
	p := deltaStart(t, 2)
	p.Costs()
	rng := rand.New(rand.NewSource(2))
	// Descend until the parent has a patch of its own, so the clones
	// below share a patch as well as a base.
	for i := 0; ; i++ {
		if _, n := p.ArrivalLayout(); n > 0 {
			break
		}
		if i == 8 {
			t.Fatal("parent has no arrival patch to share")
		}
		p = p.Clone()
		mustMoveRandomBoundary(t, p, rng)
		p.Costs()
	}
	want := costBits(p.Costs())
	const workers = 8
	kids := make([]*partition.Partition, workers)
	for i := range kids {
		kids[i] = p.Clone()
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
