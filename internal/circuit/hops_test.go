package circuit_test

import (
	"testing"

	"iddqsyn/internal/circuit"
	"iddqsyn/internal/circuits"
)

// boundedDistancesRef is the reference for AppendWithinHops: a
// breadth-first search over a map that returns the hop distance to every
// logic gate reachable from src within maxHops, src itself mapped to 0.
func boundedDistancesRef(c *circuit.Circuit, src, maxHops int) map[int]int {
	dist := map[int]int{src: 0}
	frontier := []int{src}
	for d := 1; d <= maxHops && len(frontier) > 0; d++ {
		var next []int
		for _, g := range frontier {
			for _, nb := range c.Neighbors(g) {
				if _, seen := dist[nb]; !seen {
					dist[nb] = d
					next = append(next, nb)
				}
			}
		}
		frontier = next
	}
	return dist
}

// TestAppendWithinHopsMatchesReference checks every gate of C17 and of
// every ISCAS85-like profile, for hops 0-5, against the map-based
// reference: the same gates, ascending, the same distances, src left out.
// One scratch and one pair of output buffers serve every search, so the
// test also checks that the scratch is clean between calls.
func TestAppendWithinHopsMatchesReference(t *testing.T) {
	cs := []*circuit.Circuit{circuits.C17()}
	for _, name := range circuits.Names() {
		cs = append(cs, circuits.MustISCAS85Like(name))
	}
	if testing.Short() {
		cs = cs[:3]
	}
	for _, c := range cs {
		var s circuit.HopScratch
		var gates, hops []int32
		for k := 0; k <= 5; k++ {
			for src := range c.Gates {
				gates, hops = c.AppendWithinHops(&s, src, k, gates[:0], hops[:0])
				ref := boundedDistancesRef(c, src, k)
				if len(gates) != len(ref)-1 || len(hops) != len(gates) {
					t.Fatalf("%s: src %d, k %d: %d gates and %d hops, want %d",
						c.Name, src, k, len(gates), len(hops), len(ref)-1)
				}
				for i, g := range gates {
					if i > 0 && g <= gates[i-1] {
						t.Fatalf("%s: src %d, k %d: gates not ascending: %v", c.Name, src, k, gates)
					}
					if int(g) == src {
						t.Fatalf("%s: src %d, k %d: src in its own output", c.Name, src, k)
					}
					if d, ok := ref[int(g)]; !ok || int(hops[i]) != d {
						t.Fatalf("%s: src %d, k %d: gate %d at %d hops, reference %d (reached %v)",
							c.Name, src, k, g, hops[i], d, ok)
					}
				}
			}
		}
	}
}
