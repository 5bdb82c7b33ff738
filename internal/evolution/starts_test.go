package evolution

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"iddqsyn/internal/circuits"
	"iddqsyn/internal/partition"
	"iddqsyn/internal/standard"
)

// startDigest is what a start partition hands the optimizer: its groups,
// every module's S(M) and n(t), and the bits of its first evaluation.
func startDigest(p *partition.Partition) string {
	d := fmt.Sprintf("%v|%x|", p.Groups(), math.Float64bits(p.Cost()))
	for mi := range p.NumModules() {
		m := p.ModuleEstimate(mi)
		d += fmt.Sprintf("%d%v;", m.Separation, m.Activity)
	}
	return d
}

// TestChainStartsIdenticalForAnyWorkerCount checks that ChainStarts,
// which counts the starts on up to GOMAXPROCS goroutines while it draws
// them, returns under GOMAXPROCS 1, 2, 3 and 8 what drawing each start
// and then counting it on one goroutine gives: the same groups, S(M),
// n(t) and first-evaluation cost bits, in draw order. c1908 runs at its
// estimated module size (a handful of coarse modules), c7552 at size 8
// (~590 modules per start); seeds 1–3.
func TestChainStartsIdenticalForAnyWorkerCount(t *testing.T) {
	w, cons := partition.PaperWeights(), partition.DefaultConstraints()
	cases := []struct {
		name string
		size int
	}{{"c1908", 0}, {"c7552", 8}}
	if testing.Short() {
		cases = cases[:1]
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, tc := range cases {
		e := estimatorFor(t, circuits.MustISCAS85Like(tc.name))
		size := tc.size
		if size <= 0 {
			size = standard.EstimateModuleSize(e, w, cons)
		}
		for seed := int64(1); seed <= 3; seed++ {
			prm := DefaultParams()
			prm.Seed = seed
			rng := rand.New(rand.NewSource(seed))
			want := make([]string, prm.Mu)
			for i := range want {
				p, err := partition.New(e, standard.ChainStartPartition(e.A.Circuit, size, rng), w, cons)
				if err != nil {
					t.Fatal(err)
				}
				want[i] = startDigest(p)
			}
			for _, procs := range []int{1, 2, 3, 8} {
				runtime.GOMAXPROCS(procs)
				starts, err := ChainStarts(e, w, cons, tc.size, prm)
				if err != nil {
					t.Fatal(err)
				}
				got := make([]string, len(starts))
				for i, p := range starts {
					got[i] = startDigest(p)
				}
				if !slices.Equal(got, want) {
					for i := range want {
						if i >= len(got) || got[i] != want[i] {
							t.Fatalf("%s seed %d, GOMAXPROCS %d: start %d differs from the serial build", tc.name, seed, procs, i)
						}
					}
					t.Fatalf("%s seed %d, GOMAXPROCS %d: %d starts, want %d", tc.name, seed, procs, len(got), len(want))
				}
			}
		}
	}
}
