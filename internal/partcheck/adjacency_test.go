package partcheck

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"iddqsyn/internal/circuit"
	"iddqsyn/internal/circuits"
)

// checkAdjacencyReference is checkAdjacency with each mirror check a
// search of the other gate's list.
func checkAdjacencyReference(c *circuit.Circuit, r *Report) {
	n := len(c.Gates)
	bad := func(format string, args ...interface{}) {
		r.Violations = append(r.Violations, Violation{
			Constraint: ConstraintAdjacency, Module: -1,
			Detail: fmt.Sprintf(format, args...),
		})
	}
	for i := range c.Gates {
		g := &c.Gates[i]
		if g.ID != i {
			bad("gate at index %d carries ID %d", i, g.ID)
			return
		}
		if g.Type == circuit.Input && len(g.Fanin) > 0 {
			bad("primary input %s has %d fanin", g.Name, len(g.Fanin))
		}
		if g.Type != circuit.Input && len(g.Fanin) == 0 {
			bad("logic gate %s has no fanin", g.Name)
		}
		for _, f := range g.Fanin {
			if f < 0 || f >= n {
				bad("gate %s fanin %d out of range [0,%d)", g.Name, f, n)
				continue
			}
			if !slices.Contains(c.Gates[f].Fanout, i) {
				bad("gate %s lists %s as driver, but %s's fanout omits it",
					g.Name, c.Gates[f].Name, c.Gates[f].Name)
			}
		}
		for _, f := range g.Fanout {
			if f < 0 || f >= n {
				bad("gate %s fanout %d out of range [0,%d)", g.Name, f, n)
				continue
			}
			if !slices.Contains(c.Gates[f].Fanin, i) {
				bad("gate %s lists %s in fanout, but %s's fanin omits it",
					g.Name, c.Gates[f].Name, c.Gates[f].Name)
			}
		}
	}
}

// corrupt returns a copy of c's gates with a few list entries dropped,
// duplicated, redirected, pushed out of range or added, and with one
// gate's ID changed half the time.
func corrupt(c *circuit.Circuit, rng *rand.Rand) *circuit.Circuit {
	gates := slices.Clone(c.Gates)
	for i := range gates {
		gates[i].Fanin = slices.Clone(gates[i].Fanin)
		gates[i].Fanout = slices.Clone(gates[i].Fanout)
	}
	n := len(gates)
	for edits := 1 + rng.Intn(8); edits > 0; edits-- {
		g := &gates[rng.Intn(n)]
		list := &g.Fanin
		if rng.Intn(2) == 0 {
			list = &g.Fanout
		}
		switch k := rng.Intn(5); {
		case k == 0 && len(*list) > 0:
			*list = slices.Delete(*list, 0, 1)
		case k == 1 && len(*list) > 0:
			*list = append(*list, (*list)[0])
		case k == 2 && len(*list) > 0:
			(*list)[rng.Intn(len(*list))] = rng.Intn(n)
		case k == 3:
			*list = append(*list, []int{-1, n, n + 5}[rng.Intn(3)])
		default:
			*list = append(*list, rng.Intn(n))
		}
	}
	if rng.Intn(2) == 0 {
		gates[rng.Intn(n)].ID = -1
	}
	return &circuit.Circuit{Name: c.Name, Gates: gates, Inputs: c.Inputs, Outputs: c.Outputs}
}

// checkAdjacency answers the mirror checks with a reverse-adjacency pass;
// on intact and corrupted netlists its violations, and their order, must
// be the reference's.
func TestCheckAdjacencyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, c := range []*circuit.Circuit{circuits.C17(), circuits.MustISCAS85Like("c432"), circuits.MustISCAS85Like("c1908")} {
		for trial := 0; trial < 50; trial++ {
			broken := c
			if trial > 0 {
				broken = corrupt(c, rng)
			}
			var got, want Report
			checkAdjacency(broken, &got)
			checkAdjacencyReference(broken, &want)
			if !slices.Equal(got.Violations, want.Violations) {
				t.Fatalf("%s trial %d: violations\n%v\nreference\n%v", c.Name, trial, got.Violations, want.Violations)
			}
		}
	}
}
