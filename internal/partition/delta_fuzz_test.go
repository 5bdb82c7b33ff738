// The exact-recompute oracle for incremental cost evaluation: random
// MoveGates sequences on a fine-grained partition must leave every cached
// module term and every cost field bit-identical to a from-scratch
// evaluation of the same groups.

package partition_test

import (
	"math"
	"slices"
	"sync"
	"testing"

	"iddqsyn/internal/celllib"
	"iddqsyn/internal/circuits"
	"iddqsyn/internal/estimate"
	"iddqsyn/internal/partition"
	"iddqsyn/internal/standard"
)

// deltaCircuits are the oracle's circuits; the fuzzer's first argument
// picks one. c7552 at module size 8 has ~590 tiny modules, so a move
// touches a small share of the circuit and most of the D_BIC sweep's
// gates sit outside the touched modules.
var deltaCircuits = []string{"c432", "c880", "c7552"}

// deltaEstimators holds one lazily built estimator per circuit, so inputs
// that never pick c7552 do not pay for its build.
var deltaEstimators [3]struct {
	once sync.Once
	e    *estimate.Estimator
	err  error
}

// deltaEstimator returns the shared (immutable) estimator of circuit i.
func deltaEstimator(t *testing.T, i int) *estimate.Estimator {
	t.Helper()
	d := &deltaEstimators[i%len(deltaCircuits)]
	d.once.Do(func() {
		a, err := celllib.Annotate(circuits.MustISCAS85Like(deltaCircuits[i%len(deltaCircuits)]), celllib.Default())
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
	fresh, err := partition.New(e, p.Groups(), p.W, p.Cons)
	if err != nil {
		t.Fatalf("step %d: rebuild: %v", step, err)
	}
	if got, want := p.Costs(), fresh.Costs(); costBits(got) != costBits(want) {
		t.Fatalf("step %d: incremental costs %+v, from scratch %+v", step, got, want)
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
// or c7552 partition at module size 8 and checks every step against the
// from-scratch oracle. Each step's first byte picks what happens:
//   - 0-1: a few boundary gates move;
//   - 2: a whole module moves, which deletes it;
//   - 3: a clone moves; the parent's cached terms must stay exactly as
//     before, and the walk continues on the clone;
//   - 4: two moves with WorstDiscriminability between them, which refills
//     the first move's module estimates before Costs runs;
//   - 5: the evaluated parent is cloned twice and each clone moves
//     differently; both clones must match the oracle, the parent's terms
//     must stay as before, and the walk continues on the parent.
func FuzzDeltaCost(f *testing.F) {
	f.Add(uint8(0), []byte{0, 3, 0, 1, 1, 0, 5, 2, 1, 1, 2, 4, 0, 0, 3, 7, 1, 2, 1, 0})
	f.Add(uint8(0), []byte{2, 0, 1, 0, 2, 1, 0, 0, 2, 5, 1, 1, 3, 2, 0, 0, 0, 1, 9, 2, 0, 3, 1})
	f.Add(uint8(1), []byte{1, 7, 2, 3, 9, 11, 1, 0, 3, 12, 0, 4, 1, 2, 17, 1, 2, 6, 0, 1, 0, 40, 2, 2, 1, 3})
	f.Add(uint8(1), []byte{3, 30, 1, 5, 0, 2, 2, 8, 1, 1, 0, 22, 2, 0, 1, 1, 3, 3, 0, 1, 2, 2, 0, 9, 0, 0})
	f.Add(uint8(1), []byte{2, 1, 1, 2, 2, 1, 2, 3, 0, 2, 4, 1, 2, 5, 0, 0, 0, 2, 1, 1})
	f.Add(uint8(0), []byte{4, 0, 3, 1, 1, 0, 0, 2, 9, 0, 0, 5, 5, 1, 4, 0, 0, 1, 7, 0, 1, 2, 3, 0, 1, 1})
	f.Add(uint8(1), []byte{5, 0, 2, 1, 1, 0, 0, 6, 0, 0, 0, 5, 2, 11, 0, 0, 0, 4, 1, 1, 2, 0, 0, 3, 0, 1})
	f.Add(uint8(2), []byte{0, 40, 1, 2, 0, 5, 0, 123, 0, 1, 1, 4, 0, 77, 2, 0, 0, 3, 5, 1, 200, 0, 0, 1, 0, 2, 9, 1, 0, 0})
	f.Fuzz(func(t *testing.T, circuit uint8, ops []byte) {
		e := deltaEstimator(t, int(circuit))
		p, err := partition.New(e, standard.StandardPartition(e, 8),
			partition.PaperWeights(), partition.DefaultConstraints())
		if err != nil {
			t.Fatal(err)
		}
		r := &opReader{b: ops}
		move := func(q *partition.Partition, kind, step int) {
			gates, from, to := pickMove(q, r, kind)
			if _, err := q.MoveGates(gates, from, to); err != nil {
				t.Fatalf("step %d: move %v %d->%d: %v", step, gates, from, to, err)
			}
		}
		const maxSteps = 48
		for step := 0; step < maxSteps && len(r.b) > 0 && p.NumModules() > 1; step++ {
			switch kind := r.next(6); kind {
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
			default:
				move(p, kind, step)
			}
			checkExact(t, e, p, step)
		}
	})
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
