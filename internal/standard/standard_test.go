package standard

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"iddqsyn/internal/celllib"
	"iddqsyn/internal/circuit"
	"iddqsyn/internal/circuits"
	"iddqsyn/internal/estimate"
	"iddqsyn/internal/partition"
)

func estimatorFor(t *testing.T, c *circuit.Circuit) *estimate.Estimator {
	t.Helper()
	return estimatorWith(t, c, celllib.Default(), estimate.DefaultParams())
}

func estimatorWith(t *testing.T, c *circuit.Circuit, lib *celllib.Library, p estimate.Params) *estimate.Estimator {
	t.Helper()
	a, err := celllib.Annotate(c, lib)
	if err != nil {
		t.Fatal(err)
	}
	return estimate.New(a, p)
}

// checkCover verifies a gate grouping is a valid partition of c.
func checkCover(t *testing.T, c *circuit.Circuit, groups [][]int) {
	t.Helper()
	if err := coverErr(c, groups); err != nil {
		t.Fatal(err)
	}
}

// coverErr reports the first way groups fail to partition c's logic gates.
func coverErr(c *circuit.Circuit, groups [][]int) error {
	seen := make([]bool, c.NumGates())
	covered := 0
	for gi, grp := range groups {
		if len(grp) == 0 {
			return fmt.Errorf("group %d empty", gi)
		}
		for _, g := range grp {
			if seen[g] {
				return fmt.Errorf("gate %d in two groups", g)
			}
			seen[g] = true
			covered++
			if c.Gates[g].Type == circuit.Input {
				return fmt.Errorf("primary input %d grouped", g)
			}
		}
	}
	if covered != c.NumLogicGates() {
		return fmt.Errorf("groups cover %d of %d gates", covered, c.NumLogicGates())
	}
	return nil
}

func TestEstimateModuleSizeBounds(t *testing.T) {
	c := circuits.MustISCAS85Like("c432")
	e := estimatorFor(t, c)
	cons := partition.DefaultConstraints()
	s := EstimateModuleSize(e, partition.PaperWeights(), cons)
	if s < 1 || s > c.NumLogicGates() {
		t.Fatalf("size %d out of range", s)
	}
	// The discriminability cap must hold: s gates of average leakage must
	// stay below IDDQ,th / d.
	var leakSum float64
	logic := c.LogicGates()
	for _, g := range logic {
		leakSum += e.A.LeakMax[g]
	}
	leakAvg := leakSum / float64(len(logic))
	if float64(s)*leakAvg > e.P.IDDQth/cons.MinDiscriminability*1.0001 {
		t.Errorf("size %d violates the averaged discriminability cap", s)
	}
}

func TestEstimateModuleSizeTightConstraintShrinks(t *testing.T) {
	c := circuits.MustISCAS85Like("c432")
	e := estimatorFor(t, c)
	w := partition.PaperWeights()
	loose := EstimateModuleSize(e, w, partition.Constraints{MinDiscriminability: 2})
	tight := EstimateModuleSize(e, w, partition.Constraints{MinDiscriminability: 5000})
	if tight > loose {
		t.Errorf("tighter discriminability must not grow modules: %d > %d", tight, loose)
	}
}

// A leak-free library imposes no discriminability cap, so the size
// estimate must match an unconstrained run on the default library (the
// averaged cost model does not read leakage) instead of collapsing to 1.
func TestEstimateModuleSizeZeroLeakage(t *testing.T) {
	c := circuits.MustISCAS85Like("c432")
	lib := celllib.New("leak-free", 5)
	for _, cell := range celllib.Default().Cells() {
		leakFree := *cell
		leakFree.LeakBase, leakFree.LeakPerIn = 0, 0
		if err := lib.Add(&leakFree); err != nil {
			t.Fatal(err)
		}
	}
	w := partition.PaperWeights()
	got := EstimateModuleSize(estimatorWith(t, c, lib, estimate.DefaultParams()), w, partition.DefaultConstraints())
	want := EstimateModuleSize(estimatorFor(t, c), w, partition.Constraints{MinDiscriminability: 1e-30})
	if got != want || got <= 1 {
		t.Errorf("zero-leakage size = %d, want the uncapped size %d (> 1)", got, want)
	}
}

func TestChainStartPartitionCovers(t *testing.T) {
	c := circuits.C17()
	rng := rand.New(rand.NewSource(1))
	groups := ChainStartPartition(c, 2, rng)
	checkCover(t, c, groups)
	for _, grp := range groups {
		if len(grp) > 2 {
			t.Errorf("group size %d exceeds max 2", len(grp))
		}
	}
}

func TestChainStartPartitionIsChain(t *testing.T) {
	// Each multi-gate module must be a fanout chain: gate i+1 in the
	// module is a fanout of gate i in generation order. After sorting we
	// can at least check connectivity within the module graph.
	c := circuits.MustISCAS85Like("c432")
	rng := rand.New(rand.NewSource(7))
	groups := ChainStartPartition(c, 5, rng)
	checkCover(t, c, groups)
	for _, grp := range groups {
		if len(grp) < 2 {
			continue
		}
		inGrp := make([]bool, c.NumGates())
		for _, g := range grp {
			inGrp[g] = true
		}
		for _, g := range grp {
			connected := false
			for _, nb := range c.Neighbors(g) {
				if inGrp[nb] {
					connected = true
					break
				}
			}
			if !connected {
				t.Fatalf("gate %d isolated inside its chain module %v", g, grp)
			}
		}
	}
}

func TestChainStartPartitionDifferentSeedsDiffer(t *testing.T) {
	c := circuits.MustISCAS85Like("c880")
	g1 := ChainStartPartition(c, 6, rand.New(rand.NewSource(1)))
	g2 := ChainStartPartition(c, 6, rand.New(rand.NewSource(2)))
	if equalGroups(g1, g2) {
		t.Error("different seeds should produce different start partitions")
	}
	g1b := ChainStartPartition(c, 6, rand.New(rand.NewSource(1)))
	if !equalGroups(g1, g1b) {
		t.Error("same seed must reproduce the start partition")
	}
}

func equalGroups(a, b [][]int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

func TestStandardPartitionC17(t *testing.T) {
	c := circuits.C17()
	groups := StandardPartition(estimatorFor(t, c), 3)
	checkCover(t, c, groups)
	if len(groups) != 2 {
		t.Errorf("6 gates at size 3: %d groups, want 2", len(groups))
	}
	for _, grp := range groups {
		if len(grp) != 3 {
			t.Errorf("group size %d, want 3", len(grp))
		}
	}
}

func TestStandardPartitionClustersAreTight(t *testing.T) {
	// The greedy criterion clusters closely connected gates, so the summed
	// separation of its modules should beat a random partition of equal
	// sizes on average.
	c := circuits.MustISCAS85Like("c432")
	e := estimatorFor(t, c)
	groups := StandardPartition(e, 20)
	checkCover(t, c, groups)

	sepOf := func(groups [][]int) int {
		sum := 0
		for _, grp := range groups {
			sum += e.SeparationModule(grp)
		}
		return sum
	}
	stdSep := sepOf(groups)

	rng := rand.New(rand.NewSource(3))
	logic := c.LogicGates()
	worse := 0
	const trials = 5
	for trial := 0; trial < trials; trial++ {
		perm := append([]int(nil), logic...)
		rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		var random [][]int
		for i := 0; i < len(perm); i += 20 {
			end := i + 20
			if end > len(perm) {
				end = len(perm)
			}
			random = append(random, perm[i:end])
		}
		if sepOf(random) > stdSep {
			worse++
		}
	}
	if worse < trials {
		t.Errorf("standard partitioning beat only %d/%d random partitions on separation", worse, trials)
	}
}

func TestStandardPartitionK(t *testing.T) {
	c := circuits.MustISCAS85Like("c432")
	e := estimatorFor(t, c)
	for _, k := range []int{2, 4, 8} {
		groups := StandardPartitionK(e, k)
		checkCover(t, c, groups)
		// Allow slack: trailing gates can create an extra small module.
		if len(groups) < k || len(groups) > k+2 {
			t.Errorf("k=%d: got %d modules", k, len(groups))
		}
	}
}

// Property: StandardPartition always yields a valid cover for any module
// size, on a variety of circuits.
func TestStandardPartitionAlwaysValid(t *testing.T) {
	prop := func(seed int64, sizeSel uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		c, err := circuits.RandomLogic(circuits.Spec{
			Name: "p", Inputs: 8, Outputs: 3,
			Gates: 30 + rng.Intn(50), Depth: 5 + rng.Intn(5), Seed: seed,
		})
		if err != nil {
			return false
		}
		size := 1 + int(sizeSel%20)
		groups := StandardPartition(estimatorFor(t, c), size)
		for _, grp := range groups {
			if len(grp) > size {
				return false
			}
		}
		return coverErr(c, groups) == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestStandardPartitionDegenerateSizes(t *testing.T) {
	c := circuits.C17()
	p := estimate.DefaultParams()
	// ρ = 0 leaves every neighbourhood empty, so every candidate ties;
	// size 0 clamps to 1.
	p.Rho = 0
	noNeighbours := estimatorWith(t, c, celllib.Default(), p)
	groups := StandardPartition(noNeighbours, 0)
	checkCover(t, c, groups)
	if len(groups) != 6 {
		t.Errorf("size 1: %d singleton groups, want 6", len(groups))
	}
	groups = StandardPartition(noNeighbours, 3)
	checkCover(t, c, groups)
	if len(groups) != 2 {
		t.Errorf("size 3 at rho 0: %d groups, want 2", len(groups))
	}
	groups = StandardPartition(estimatorFor(t, c), 100)
	checkCover(t, c, groups)
	if len(groups) != 1 {
		t.Errorf("oversized module: %d groups, want 1", len(groups))
	}
}
