package estimate

import (
	"runtime"
	"slices"
	"testing"

	"iddqsyn/internal/celllib"
	"iddqsyn/internal/circuit"
	"iddqsyn/internal/circuits"
)

// TestNeighborhoodTableExactForAnyWorkerCount builds the ρ-hop table
// under GOMAXPROCS 1, 2, 3 and 8, so the workers' range boundaries fall
// both on primary inputs (empty rows) and on logic gates, and checks
// every gate's row against a fresh AppendWithinHops and the table's
// arrays for append slack.
func TestNeighborhoodTableExactForAnyWorkerCount(t *testing.T) {
	names := []string{"c432"}
	if !testing.Short() {
		names = append(names, "c7552")
	}
	procs := []int{1, 2, 3, 8}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var onInput, onLogic bool
	for _, name := range names {
		a, err := celllib.Annotate(circuits.MustISCAS85Like(name), celllib.Default())
		if err != nil {
			t.Fatal(err)
		}
		c := a.Circuit
		n := c.NumGates()
		for _, k := range procs {
			for w := 1; w < k; w++ {
				if c.Gates[w*n/k].Type == circuit.Input {
					onInput = true
				} else {
					onLogic = true
				}
			}
		}
		var hs circuit.HopScratch
		for _, k := range procs {
			runtime.GOMAXPROCS(k)
			e := New(a, DefaultParams())
			if len(e.nbrGate) != cap(e.nbrGate) || len(e.nbrDist) != cap(e.nbrDist) {
				t.Errorf("%s, %d workers: nbrGate len %d cap %d, nbrDist len %d cap %d; want exact sizes",
					name, k, len(e.nbrGate), cap(e.nbrGate), len(e.nbrDist), cap(e.nbrDist))
			}
			for g := range c.Gates {
				var want []int32
				var hops []int32
				if c.Gates[g].Type != circuit.Input {
					want, hops = c.AppendWithinHops(&hs, g, e.P.Rho, nil, nil)
				}
				wantDist := make([]uint8, len(hops))
				for i, h := range hops {
					wantDist[i] = uint8(h)
				}
				gates, dist := e.Neighborhood(g)
				if !slices.Equal(gates, want) || !slices.Equal(dist, wantDist) {
					t.Fatalf("%s, %d workers: gate %d row %v/%v, want %v/%v", name, k, g, gates, dist, want, wantDist)
				}
			}
		}
	}
	if !onInput || !onLogic {
		t.Errorf("range boundaries on inputs %v, on logic gates %v; want both", onInput, onLogic)
	}
}
