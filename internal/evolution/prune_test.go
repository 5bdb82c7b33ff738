package evolution

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"iddqsyn/internal/circuits"
	"iddqsyn/internal/obs"
	"iddqsyn/internal/partition"
)

// Pruning must change no result: runs of c880 at module size 8 and of
// c1908 at its estimated module size, seeds 1-3, 60 generations, give the
// same best groups, history bits and evaluation count with every cost
// evaluated exactly as with descendants that cannot be selected left
// unswept. With pruning on, each run must prune at least one descendant.
// Run it under the race detector: the helpers read and extend the
// generation's known costs concurrently.
func TestPruningChangesNoResult(t *testing.T) {
	w, cons := partition.PaperWeights(), partition.DefaultConstraints()
	for _, tc := range []struct {
		circuit string
		size    int
	}{{"c880", 8}, {"c1908", 0}} {
		e := estimatorFor(t, circuits.MustISCAS85Like(tc.circuit))
		for seed := int64(1); seed <= 3; seed++ {
			prm := DefaultParams()
			prm.Seed = seed
			prm.MaxGenerations, prm.StallGenerations = 60, 60
			run := func(exactOnly bool) (*Result, uint64) {
				testExactOnly = exactOnly
				defer func() { testExactOnly = false }()
				starts, err := ChainStarts(e, w, cons, tc.size, prm)
				if err != nil {
					t.Fatal(err)
				}
				o := obs.New("prune", nil, nil)
				res, err := Optimize(obs.NewContext(context.Background(), o), starts, prm, nil)
				if err != nil {
					t.Fatal(err)
				}
				return res, o.Registry().Snapshot().Counters[MetricPruned]
			}
			exact, exactPruned := run(true)
			pruning, pruned := run(false)
			name := fmt.Sprintf("%s seed %d", tc.circuit, seed)
			if exactPruned != 0 {
				t.Errorf("%s: %d descendants pruned with pruning off", name, exactPruned)
			}
			if pruned == 0 {
				t.Errorf("%s: no descendant pruned", name)
			}
			t.Logf("%s: %d of %d evaluations pruned", name, pruned, pruning.Evaluations)
			if pruning.Evaluations != exact.Evaluations {
				t.Errorf("%s: %d evaluations, %d with pruning off", name, pruning.Evaluations, exact.Evaluations)
			}
			if !slices.EqualFunc(pruning.History, exact.History, func(a, b float64) bool {
				return math.Float64bits(a) == math.Float64bits(b)
			}) {
				t.Errorf("%s: history differs from the run with pruning off", name)
			}
			if !slices.EqualFunc(pruning.Best.Groups(), exact.Best.Groups(), slices.Equal) {
				t.Errorf("%s: best groups differ from the run with pruning off", name)
			}
		}
	}
}
