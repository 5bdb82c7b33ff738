package standard

import (
	"fmt"
	"math/rand"
	"slices"
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

// Every start module must be one connected piece of the circuit graph: a
// chain plus the chains restarted from gates adjacent to it. A BFS over
// Neighbors inside each module must reach all of it.
func TestChainStartPartitionIsChain(t *testing.T) {
	c1908 := circuits.MustISCAS85Like("c1908")
	for _, tc := range []struct {
		c    *circuit.Circuit
		size int
		seed int64
	}{
		{circuits.MustISCAS85Like("c432"), 5, 7},
		{c1908, estimatedSize(t, c1908), 3},
	} {
		groups := ChainStartPartition(tc.c, tc.size, rand.New(rand.NewSource(tc.seed)))
		checkCover(t, tc.c, groups)
		inGrp := make([]bool, tc.c.NumGates())
		seen := make([]bool, tc.c.NumGates())
		for _, grp := range groups {
			if len(grp) > tc.size {
				t.Fatalf("%s: module of %d gates exceeds size %d", tc.c.Name, len(grp), tc.size)
			}
			for _, g := range grp {
				inGrp[g] = true
			}
			seen[grp[0]] = true
			queue, reached := []int{grp[0]}, 1
			for len(queue) > 0 {
				g := queue[0]
				queue = queue[1:]
				for _, nb := range tc.c.Neighbors(g) {
					if inGrp[nb] && !seen[nb] {
						seen[nb] = true
						reached++
						queue = append(queue, nb)
					}
				}
			}
			if reached != len(grp) {
				t.Fatalf("%s: module %v falls apart: BFS reaches %d of %d gates", tc.c.Name, grp, reached, len(grp))
			}
			for _, g := range grp {
				inGrp[g] = false
			}
		}
	}
}

// estimatedSize is the module size a synthesis starts c's partitions at.
func estimatedSize(t *testing.T, c *circuit.Circuit) int {
	t.Helper()
	return EstimateModuleSize(estimatorFor(t, c), partition.PaperWeights(), partition.DefaultConstraints())
}

// chainStartReference is the constructor ChainStartPartition replaced: it
// rebuilds and sorts the module's whole free frontier at every restart.
// The two must agree on the groups and on how many draws they take.
func chainStartReference(c *circuit.Circuit, maxModuleSize int, rng *rand.Rand) [][]int {
	if maxModuleSize < 1 {
		maxModuleSize = 1
	}
	order := nearInputsFirst(c)
	free := make([]bool, c.NumGates())
	for _, g := range order {
		free[g] = true
	}
	var groups [][]int
	var nexts []int
	for _, start := range order {
		if !free[start] {
			continue
		}
		module := []int{start}
		free[start] = false
		cur := start
		for len(module) < maxModuleSize {
			nexts = nexts[:0]
			if !c.IsOutput(cur) {
				for _, f := range c.Gates[cur].Fanout {
					if free[f] {
						nexts = append(nexts, f)
					}
				}
			}
			if len(nexts) == 0 {
				nexts = adjacentFreeReference(nexts, c, module, free)
				if len(nexts) == 0 {
					break
				}
			}
			cur = nexts[rng.Intn(len(nexts))]
			free[cur] = false
			module = append(module, cur)
		}
		slices.Sort(module)
		groups = append(groups, module)
	}
	return groups
}

// adjacentFreeReference lists the free gates directly connected to the
// module, ascending and without duplicates, in buf's storage.
func adjacentFreeReference(buf []int, c *circuit.Circuit, module []int, free []bool) []int {
	dst := buf[:0]
	for _, g := range module {
		for _, nb := range c.Neighbors(g) {
			if free[nb] {
				dst = append(dst, nb)
			}
		}
	}
	slices.Sort(dst)
	return slices.Compact(dst)
}

// ChainStartPartition must build exactly the reference's groups and leave
// the rng stream where the reference leaves it: ChainStarts draws all μ
// starts from one stream, so one extra or missing draw shifts every later
// start. The reference's restarts are quadratic in the module size, so
// -short checks seed 1 only.
func TestChainStartPartitionMatchesReference(t *testing.T) {
	cs := []*circuit.Circuit{circuits.C17()}
	for _, name := range circuits.Names() {
		cs = append(cs, circuits.MustISCAS85Like(name))
	}
	seeds := int64(5)
	if testing.Short() {
		seeds = 1
	}
	for _, c := range cs {
		n := c.NumLogicGates()
		for _, size := range []int{1, 2, 8, estimatedSize(t, c), (n + 1) / 2, n + 1} {
			for seed := int64(1); seed <= seeds; seed++ {
				gotRng, wantRng := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
				got := ChainStartPartition(c, size, gotRng)
				want := chainStartReference(c, size, wantRng)
				if !equalGroups(got, want) {
					t.Fatalf("%s size %d seed %d: %d groups differ from the reference's %d", c.Name, size, seed, len(got), len(want))
				}
				if g, w := gotRng.Int63(), wantRng.Int63(); g != w {
					t.Fatalf("%s size %d seed %d: next draw %d, reference %d: the draw counts differ", c.Name, size, seed, g, w)
				}
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

// standardReference is StandardPartition as the §5 text reads, with both
// nearnesses recounted: every added gate rescans the free gates for the
// maximum nearness to the module and sums the nearness to the other free
// gates of every gate that ties.
func standardReference(e *estimate.Estimator, moduleSize int) [][]int {
	moduleSize = max(moduleSize, 1)
	c := e.A.Circuit
	order := nearInputsFirst(c)
	free := make([]bool, c.NumGates())
	for _, g := range order {
		free[g] = true
	}
	near := make([]int, c.NumGates())
	var groups [][]int
	for _, start := range order {
		if !free[start] {
			continue
		}
		clear(near)
		var module []int
		for g := start; g >= 0; g = closestReference(e, free, near) {
			free[g] = false
			module = append(module, g)
			if len(module) == moduleSize {
				break
			}
			gates, weights := e.Neighborhood(g)
			for i, h := range gates {
				if free[h] {
					near[h] += int(weights[i])
				}
			}
		}
		slices.Sort(module)
		groups = append(groups, module)
	}
	return groups
}

// closestReference returns the free gate with the maximum nearness to the
// module, breaking ties by the minimum nearness to the other free gates
// and then by the lowest ID; -1 when no gate is free.
func closestReference(e *estimate.Estimator, free []bool, near []int) int {
	maxNear := -1
	for g, ok := range free {
		if ok && near[g] > maxNear {
			maxNear = near[g]
		}
	}
	best, minFar := -1, 0
	for g, ok := range free {
		if !ok || near[g] != maxNear {
			continue
		}
		far := 0
		gates, weights := e.Neighborhood(g)
		for i, h := range gates {
			if free[h] {
				far += int(weights[i])
			}
		}
		if best < 0 || far < minFar {
			best, minFar = g, far
		}
	}
	return best
}

// StandardPartition keeps both nearnesses exact instead of recounting
// them, and must choose exactly the reference's gates: on C17, c432 and
// the six Table 1 circuits, at sizes from singletons to one module,
// including the sizes Table 1 reaches at its module counts. -short checks
// C17, c432 and c2670 only.
func TestStandardPartitionMatchesReference(t *testing.T) {
	names := []string{"c432", "c1908", "c2670", "c3540", "c5315", "c6288", "c7552"}
	if testing.Short() {
		names = []string{"c432", "c2670"}
	}
	cs := []*circuit.Circuit{circuits.C17()}
	for _, name := range names {
		cs = append(cs, circuits.MustISCAS85Like(name))
	}
	for _, c := range cs {
		e := estimatorFor(t, c)
		n := c.NumLogicGates()
		for _, size := range []int{1, 2, 8, estimatedSize(t, c), (n + 10) / 11, (n + 2) / 3, n + 1} {
			got, want := StandardPartition(e, size), standardReference(e, size)
			if !equalGroups(got, want) {
				t.Fatalf("%s size %d: %d groups differ from the reference's %d", c.Name, size, len(got), len(want))
			}
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
