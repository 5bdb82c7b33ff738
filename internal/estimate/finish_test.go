package estimate_test

import (
	"math"
	"testing"

	"iddqsyn/internal/celllib"
	"iddqsyn/internal/circuits"
	"iddqsyn/internal/electrical"
	"iddqsyn/internal/estimate"
	"iddqsyn/internal/partition"
	"iddqsyn/internal/standard"
)

// FinishModule computes the delay damping once per (D(g), Rg(g)) class;
// every degraded delay must still equal the per-gate
// D(g)·DelayDegradation(n, Rs, Rg(g), D(g), Cs) bit for bit. The modules
// are c1908's at the estimated module size (hundreds of gates, many per
// class) and c7552's at size 8 (a few gates, mostly one per class).
func TestFinishModuleDelayMatchesPerGateDegradation(t *testing.T) {
	for _, tc := range []struct {
		name string
		size int // 0: the estimated module size
	}{{"c1908", 0}, {"c7552", 8}} {
		a, err := celllib.Annotate(circuits.MustISCAS85Like(tc.name), celllib.Default())
		if err != nil {
			t.Fatal(err)
		}
		e := estimate.New(a, estimate.DefaultParams())
		size := tc.size
		if size == 0 {
			size = standard.EstimateModuleSize(e, partition.PaperWeights(), partition.DefaultConstraints())
		}
		levels := a.Circuit.Levels()
		for mi, gates := range standard.StandardPartition(e, size) {
			sep, act := e.ModuleCounts(gates)
			m := e.FinishModule(gates, sep, act)
			for i, g := range gates {
				n := 1
				if t := levels[g]; t < len(act) && act[t] > 1 {
					n = act[t]
				}
				deg, err := electrical.DelayDegradation(n, m.Rs, a.Rg[g], a.Delay[g], m.Cs)
				if err != nil {
					t.Fatal(err)
				}
				if want := a.Delay[g] * deg; math.Float64bits(e.Delays(m)[i]) != math.Float64bits(want) {
					t.Fatalf("%s size %d, module %d, gate %d: Delay %v, per-gate reference %v",
						tc.name, size, mi, g, e.Delays(m)[i], want)
				}
			}
		}
	}
}
