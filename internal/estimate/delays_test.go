package estimate_test

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

// A descendant whose cost bound already exceeds its limit is not swept,
// so its touched modules never build their delay vectors, although the
// bound reads their delays along the parent's longest path (GateDelay).
// Its exact evaluation then builds them. The descendants are one boundary
// move each from a c432 partition at module size 8.
func TestPrunedDescendantBuildsNoDelays(t *testing.T) {
	a, err := celllib.Annotate(circuits.MustISCAS85Like("c432"), celllib.Default())
	if err != nil {
		t.Fatal(err)
	}
	e := estimate.New(a, estimate.DefaultParams())
	p, err := partition.New(e, standard.StandardPartition(e, 8), partition.PaperWeights(), partition.DefaultConstraints())
	if err != nil {
		t.Fatal(err)
	}
	p.Costs()
	pruned := 0
	for from := range p.NumModules() {
		if p.ModuleSize(from) < 2 {
			continue // a move out of it could delete it
		}
		for _, g := range p.BoundaryGates(from) {
			for _, to := range p.ConnectedModules(g) {
				q := p.Clone()
				if _, err := q.MoveGates([]int{g}, from, to); err != nil {
					t.Fatal(err)
				}
				if _, exact := q.PenalisedCostAbove(math.Inf(-1)); exact {
					t.Fatalf("move of gate %d %d->%d: exact cost below a limit of -Inf", g, from, to)
				}
				for _, mi := range []int{from, to} {
					if estimate.DelaysBuilt(q.ModuleEstimate(mi)) {
						t.Fatalf("move of gate %d %d->%d: pruned descendant's module %d built its delays", g, from, to, mi)
					}
				}
				q.PenalisedCost()
				for _, mi := range []int{from, to} {
					if !estimate.DelaysBuilt(q.ModuleEstimate(mi)) {
						t.Fatalf("move of gate %d %d->%d: swept module %d holds no delays", g, from, to, mi)
					}
				}
				q.Release()
				pruned++
			}
		}
	}
	if pruned == 0 {
		t.Fatal("no boundary move found")
	}
}

// Clones share module estimates, so sweeps on several goroutines may ask
// one module for its delays at once: each caller gets the same bits
// whether it stored the vector, lost the race to store it or read it
// stored, and GateDelay agrees with the vector before and after it is
// built. Run it under the race detector.
func TestConcurrentDelaysAgree(t *testing.T) {
	a, err := celllib.Annotate(circuits.MustISCAS85Like("c880"), celllib.Default())
	if err != nil {
		t.Fatal(err)
	}
	e := estimate.New(a, estimate.DefaultParams())
	for _, gates := range standard.StandardPartition(e, 40)[:4] {
		m := e.EvalModule(gates)
		want := e.Delays(e.EvalModule(gates))
		for i := range gates {
			if got := e.GateDelay(m, i); math.Float64bits(got) != math.Float64bits(want[i]) {
				t.Fatalf("GateDelay(%d) before the vector is built = %v, want %v", i, got, want[i])
			}
		}
		got := make([][]float64, 8)
		var wg sync.WaitGroup
		for w := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[w] = e.Delays(m)
			}()
		}
		wg.Wait()
		for w, d := range got {
			if !slices.Equal(d, want) {
				t.Fatalf("caller %d got other delays than a lone caller", w)
			}
		}
		if !estimate.DelaysBuilt(m) {
			t.Fatal("no caller stored the vector")
		}
		for i := range gates {
			if got := e.GateDelay(m, i); math.Float64bits(got) != math.Float64bits(want[i]) {
				t.Fatalf("GateDelay(%d) after the vector is built = %v, want %v", i, got, want[i])
			}
		}
	}
}
