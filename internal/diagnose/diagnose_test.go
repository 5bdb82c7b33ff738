package diagnose

import (
	"context"
	"math/rand"
	"testing"

	"iddqsyn/internal/atpg"
	"iddqsyn/internal/bic"
	"iddqsyn/internal/celllib"
	"iddqsyn/internal/circuits"
	"iddqsyn/internal/core"
	"iddqsyn/internal/estimate"
	"iddqsyn/internal/evolution"
	"iddqsyn/internal/faults"
)

// fixture synthesizes c432, extracts faults and generates vectors.
func fixture(t *testing.T) (*core.Result, []faults.Fault, [][]bool) {
	t.Helper()
	c := circuits.MustISCAS85Like("c432")
	eprm := evolution.DefaultParams()
	eprm.MaxGenerations = 30
	res, err := core.SynthesizeContext(context.Background(), c, core.Options{Evolution: &eprm, ModuleSize: 40})
	if err != nil {
		t.Fatal(err)
	}
	cfg := faults.DefaultConfig()
	cfg.MaxBridges = 150
	list := faults.Universe(c, cfg, rand.New(rand.NewSource(1)))
	opt := atpg.DefaultOptions()
	gen, err := atpg.Generate(c, list, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res, list, gen.Vectors
}

func moduleOf(res *core.Result) []int {
	c := res.Circuit
	m := make([]int, c.NumGates())
	for i := range m {
		m[i] = res.Chip.ModuleOf(i)
	}
	return m
}

func TestBuildAndSelfDiagnose(t *testing.T) {
	res, list, vecs := fixture(t)
	d, err := Build(res.Circuit, moduleOf(res), list, vecs)
	if err != nil {
		t.Fatal(err)
	}
	// Every detected fault must diagnose itself with score 1 at rank
	// among the exact matches.
	checked := 0
	for fi := range list {
		syn := d.FaultSyndrome(fi)
		if len(syn) == 0 {
			continue
		}
		checked++
		if checked > 60 {
			break
		}
		cands := d.Diagnose(syn)
		if len(cands) == 0 {
			t.Fatalf("fault %v: no candidates for own syndrome", &list[fi])
		}
		if cands[0].Score != 1.0 {
			t.Fatalf("fault %v: top score %g, want 1.0", &list[fi], cands[0].Score)
		}
		found := false
		for _, m := range d.ExactMatches(syn) {
			if m == fi {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("fault %v not among its own exact matches", &list[fi])
		}
	}
	if checked == 0 {
		t.Fatal("no detected faults to check")
	}
}

// End-to-end: inject a defect, collect the chip's real syndrome through
// the sized sensors, and verify the dictionary diagnosis pinpoints the
// defect (or an equivalent).
func TestDiagnoseFromChipSyndrome(t *testing.T) {
	res, list, vecs := fixture(t)
	d, err := Build(res.Circuit, moduleOf(res), list, vecs)
	if err != nil {
		t.Fatal(err)
	}
	tested := 0
	for fi := range list {
		if len(d.FaultSyndrome(fi)) == 0 {
			continue
		}
		tested++
		if tested > 12 {
			break
		}
		observed := chipSyndrome(t, res.Chip, vecs, list[fi])
		if len(observed) == 0 {
			t.Fatalf("fault %v: chip shows no syndrome but dictionary predicts one", &list[fi])
		}
		exact := d.ExactMatches(observed)
		found := false
		for _, m := range exact {
			if m == fi {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("fault %v: not in the exact-match class %v", &list[fi], exact)
		}
	}
}

// chipSyndrome collects every failing (vector, module) measurement.
func chipSyndrome(t *testing.T, chip *bic.Chip, vecs [][]bool, f faults.Fault) Syndrome {
	t.Helper()
	var syn Syndrome
	for vi, v := range vecs {
		readings, err := chip.ApplyVector(v, []faults.Fault{f})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range readings {
			if !r.Pass {
				syn = append(syn, Observation{Vector: vi, Module: r.Module})
			}
		}
	}
	syn.sorted()
	return syn
}

func TestDiagnoseEmptySyndrome(t *testing.T) {
	res, list, vecs := fixture(t)
	d, err := Build(res.Circuit, moduleOf(res), list, vecs)
	if err != nil {
		t.Fatal(err)
	}
	if cands := d.Diagnose(nil); cands != nil {
		t.Error("fault-free syndrome must return no candidates")
	}
}

func TestBuildEmptyVectors(t *testing.T) {
	res, list, _ := fixture(t)
	if _, err := Build(res.Circuit, moduleOf(res), list, nil); err == nil {
		t.Error("want error for empty vector set")
	}
}

func TestResolution(t *testing.T) {
	res, list, vecs := fixture(t)
	d, err := Build(res.Circuit, moduleOf(res), list, vecs)
	if err != nil {
		t.Fatal(err)
	}
	r := d.Resolve()
	if r.Faults != len(list) {
		t.Errorf("Faults = %d, want %d", r.Faults, len(list))
	}
	if r.Detected == 0 || r.DistinctClasses == 0 {
		t.Fatalf("degenerate resolution %+v", r)
	}
	if r.DistinctClasses > r.Detected {
		t.Errorf("more classes than detected faults: %+v", r)
	}
	if r.LargestClass < 1 {
		t.Errorf("largest class %d", r.LargestClass)
	}
	// On-chip per-module sensing should resolve most faults into small
	// classes: the average class size stays in the single digits.
	if avg := float64(r.Detected) / float64(r.DistinctClasses); avg > 8 {
		t.Errorf("average equivalence class %.1f too coarse: %+v", avg, r)
	}
	t.Logf("resolution: %+v (avg class %.2f)", r, float64(r.Detected)/float64(r.DistinctClasses))
}

// Module attribution must sharpen diagnosis: merging all modules into one
// (as off-chip IDDQ testing would) cannot yield more distinct classes.
func TestPerModuleSensingSharpensDiagnosis(t *testing.T) {
	res, list, vecs := fixture(t)
	perModule, err := Build(res.Circuit, moduleOf(res), list, vecs)
	if err != nil {
		t.Fatal(err)
	}
	flat := make([]int, res.Circuit.NumGates())
	for i := range flat {
		if res.Chip.ModuleOf(i) >= 0 {
			flat[i] = 0
		} else {
			flat[i] = -1
		}
	}
	offChip, err := Build(res.Circuit, flat, list, vecs)
	if err != nil {
		t.Fatal(err)
	}
	pm := perModule.Resolve()
	oc := offChip.Resolve()
	if pm.DistinctClasses < oc.DistinctClasses {
		t.Errorf("per-module sensing resolves %d classes, off-chip %d — should not be worse",
			pm.DistinctClasses, oc.DistinctClasses)
	}
	t.Logf("classes: per-module %d vs off-chip %d", pm.DistinctClasses, oc.DistinctClasses)
}

func TestEstimateUnused(t *testing.T) {
	// Guard that the fixture's estimator parameters stay the defaults the
	// dictionary assumptions (defect current >> threshold) rely on.
	p := estimate.DefaultParams()
	cfg := faults.DefaultConfig()
	if cfg.VDD/cfg.BridgeRes < 100*p.IDDQth {
		t.Error("bridge defect current no longer dominates the threshold")
	}
	_ = celllib.Default()
}

// Diagnostic resolution of on-chip per-module sensing vs one off-chip
// measurement — the fault-location payoff of the BIC architecture
// (paper reference [4]).
func BenchmarkDiagnosticResolution(b *testing.B) {
	b.ReportAllocs()
	c := circuits.MustISCAS85Like("c432")
	eprm := evolution.DefaultParams()
	eprm.MaxGenerations = 60
	eprm.StallGenerations = 20
	res, err := core.SynthesizeContext(context.Background(), c, core.Options{Evolution: &eprm, ModuleSize: 40})
	if err != nil {
		b.Fatal(err)
	}
	cfg := faults.DefaultConfig()
	cfg.MaxBridges = 300
	list := faults.Universe(c, cfg, rand.New(rand.NewSource(1)))
	gen, err := atpg.Generate(c, list, atpg.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	moduleOf := make([]int, c.NumGates())
	for i := range moduleOf {
		moduleOf[i] = res.Chip.ModuleOf(i)
	}
	b.ResetTimer()
	var classes int
	for i := 0; i < b.N; i++ {
		dict, err := Build(c, moduleOf, list, gen.Vectors)
		if err != nil {
			b.Fatal(err)
		}
		classes = dict.Resolve().DistinctClasses
	}
	b.ReportMetric(float64(classes), "syndromeClasses")
}
