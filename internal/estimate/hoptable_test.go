package estimate

import (
	"runtime"
	"slices"
	"testing"

	"iddqsyn/internal/celllib"
	"iddqsyn/internal/circuit"
	"iddqsyn/internal/circuits"
)

// TestNeighborhoodTableExactForAnyWorkerCount builds the hop table under
// GOMAXPROCS 1, 2, 3 and 8, so the workers' range boundaries fall both on
// primary inputs (empty rows) and on logic gates, and checks every gate's
// row against a fresh AppendWithinHops within ρ−1 hops, weighted ρ − d,
// and every block's arrays for append slack: each holds exactly its rows.
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
			for b, rows := range e.nbrRows {
				if want := int(e.nbrOff[min(64*b+64, n)] - e.nbrOff[64*b]); len(rows.gate) != want ||
					len(rows.gate) != cap(rows.gate) || len(rows.weight) != want || len(rows.weight) != cap(rows.weight) {
					t.Errorf("%s, %d workers: block %d gate len %d cap %d, weight len %d cap %d; want exact size %d",
						name, k, b, len(rows.gate), cap(rows.gate), len(rows.weight), cap(rows.weight), want)
				}
			}
			for g := range c.Gates {
				var want []int32
				var hops []int32
				if c.Gates[g].Type != circuit.Input {
					want, hops = c.AppendWithinHops(&hs, g, e.P.Rho-1, nil, nil)
				}
				wantWeight := make([]uint8, len(hops))
				for i, h := range hops {
					wantWeight[i] = uint8(e.P.Rho - int(h))
				}
				gates, weight := e.Neighborhood(g)
				if !slices.Equal(gates, want) || !slices.Equal(weight, wantWeight) {
					t.Fatalf("%s, %d workers: gate %d row %v/%v, want %v/%v", name, k, g, gates, weight, want, wantWeight)
				}
			}
		}
	}
	if !onInput || !onLogic {
		t.Errorf("range boundaries on inputs %v, on logic gates %v; want both", onInput, onLogic)
	}
}

// The hop table's block searches stop at ρ−1 hops for any ρ: none at
// ρ = 0 or 1, and at the first empty level when ρ outruns the circuit's
// diameter (ρ = 256). Every row must equal a fresh AppendWithinHops
// within ρ−1 hops, weighted ρ − d, on C17 and on c432.
func TestNeighborhoodTableExactForAnyRho(t *testing.T) {
	for _, c := range []*circuit.Circuit{circuits.C17(), circuits.MustISCAS85Like("c432")} {
		a, err := celllib.Annotate(c, celllib.Default())
		if err != nil {
			t.Fatal(err)
		}
		var hs circuit.HopScratch
		for _, rho := range []int{0, 1, 2, 3, 7, 256} {
			p := DefaultParams()
			p.Rho = rho
			e := New(a, p)
			for g := range c.Gates {
				var want, hops []int32
				if c.Gates[g].Type != circuit.Input {
					want, hops = c.AppendWithinHops(&hs, g, rho-1, nil, nil)
				}
				wantWeight := make([]uint8, len(hops))
				for i, h := range hops {
					wantWeight[i] = uint8(rho - int(h))
				}
				gates, weight := e.Neighborhood(g)
				if !slices.Equal(gates, want) || !slices.Equal(weight, wantWeight) {
					t.Fatalf("%s, ρ=%d: gate %d row %v/%v, want %v/%v", c.Name, rho, g, gates, weight, want, wantWeight)
				}
			}
		}
	}
}
