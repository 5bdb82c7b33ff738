package yield

import (
	"context"
	"math/rand"
	"testing"

	"iddqsyn/internal/atpg"
	"iddqsyn/internal/bic"
	"iddqsyn/internal/circuits"
	"iddqsyn/internal/core"
	"iddqsyn/internal/evolution"
	"iddqsyn/internal/faults"
)

func fixture(t *testing.T) (*bic.Chip, [][]bool, []faults.Fault) {
	t.Helper()
	c := circuits.MustISCAS85Like("c432")
	eprm := evolution.DefaultParams()
	eprm.MaxGenerations = 20
	res, err := core.SynthesizeContext(context.Background(), c, core.Options{Evolution: &eprm, ModuleSize: 40})
	if err != nil {
		t.Fatal(err)
	}
	cfg := faults.DefaultConfig()
	cfg.MaxBridges = 100
	list := faults.Universe(c, cfg, rand.New(rand.NewSource(1)))
	gen, err := atpg.Generate(c, list, atpg.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return res.Chip, gen.Vectors, list
}

func TestBuildValidation(t *testing.T) {
	chip, vecs, list := fixture(t)
	if _, err := Build(chip, nil, list, DefaultConfig()); err == nil {
		t.Error("want error for empty vectors")
	}
	if _, err := Build(chip, vecs, nil, DefaultConfig()); err == nil {
		t.Error("want error for empty fault list")
	}
	bad := DefaultConfig()
	bad.GoodDies = 0
	if _, err := Build(chip, vecs, list, bad); err == nil {
		t.Error("want error for zero dies")
	}
}

func TestThresholdTradeoffShape(t *testing.T) {
	chip, vecs, list := fixture(t)
	cfg := DefaultConfig()
	cfg.GoodDies = 500
	cfg.BadDies = 500
	st, err := Build(chip, vecs, list, cfg)
	if err != nil {
		t.Fatal(err)
	}
	points, err := st.Sweep(1e-9, 1e-2, 25)
	if err != nil {
		t.Fatal(err)
	}
	// Monotonicity: escape grows with threshold, overkill shrinks.
	for i := 1; i < len(points); i++ {
		if points[i].Escape < points[i-1].Escape-1e-12 {
			t.Errorf("escape not monotone at %g", points[i].Threshold)
		}
		if points[i].Overkill > points[i-1].Overkill+1e-12 {
			t.Errorf("overkill not monotone at %g", points[i].Threshold)
		}
	}
	// A tiny threshold rejects every good die; a huge one passes every
	// defective die.
	if points[0].Overkill < 0.99 {
		t.Errorf("1 nA threshold should fail ~all good dies, overkill %.2f", points[0].Overkill)
	}
	if points[len(points)-1].Escape < 0.99 {
		t.Errorf("10 mA threshold should pass ~all bad dies, escape %.2f",
			points[len(points)-1].Escape)
	}
}

func TestPaperOperatingPointIsComfortable(t *testing.T) {
	// At the paper's IDDQ,th = 1 µA with modules sized for d >= 10, the
	// window between leakage and defect currents is wide: both escape and
	// overkill must be (near) zero at 1 µA despite the die-to-die spread.
	chip, vecs, list := fixture(t)
	st, err := Build(chip, vecs, list, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	p := st.At(1e-6)
	if p.Overkill > 0.001 {
		t.Errorf("overkill at 1 µA = %.4f, want ~0", p.Overkill)
	}
	if p.Escape > 0.02 {
		// A sampled defect that the vector set never excites escapes no
		// matter the threshold; the excitation coverage bounds this.
		t.Errorf("escape at 1 µA = %.4f, want near the ATPG escape floor", p.Escape)
	}
}

func TestZeroOverkillThreshold(t *testing.T) {
	chip, vecs, list := fixture(t)
	st, err := Build(chip, vecs, list, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	th := st.ZeroOverkillThreshold()
	if p := st.At(th); p.Overkill != 0 {
		t.Errorf("overkill at the zero-overkill threshold = %g", p.Overkill)
	}
	// Threshold must sit above the nominal worst leakage but far below
	// the defect currents.
	if th > 1e-4 {
		t.Errorf("zero-overkill threshold %g suspiciously high", th)
	}
}

func TestDeterministicForSeed(t *testing.T) {
	chip, vecs, list := fixture(t)
	cfg := DefaultConfig()
	cfg.GoodDies, cfg.BadDies = 300, 300
	a, err := Build(chip, vecs, list, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(chip, vecs, list, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pa, pb := a.At(1e-6), b.At(1e-6)
	if pa != pb {
		t.Errorf("nondeterministic study: %+v vs %+v", pa, pb)
	}
}

func TestInjectedRandMatchesSeed(t *testing.T) {
	chip, vecs, list := fixture(t)
	cfg := DefaultConfig()
	cfg.GoodDies, cfg.BadDies = 200, 200
	bySeed, err := Build(chip, vecs, list, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Rand = rand.New(rand.NewSource(cfg.Seed))
	byRand, err := Build(chip, vecs, list, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pa, pb := bySeed.At(1e-6), byRand.At(1e-6)
	if pa != pb {
		t.Errorf("injected rand diverged from seed-driven run: %+v vs %+v", pa, pb)
	}
}

func TestSweepValidation(t *testing.T) {
	chip, vecs, list := fixture(t)
	st, err := Build(chip, vecs, list, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][3]float64{{0, 1, 5}, {1e-6, 1e-6, 5}, {1e-6, 1e-3, 1}} {
		if _, err := st.Sweep(bad[0], bad[1], int(bad[2])); err == nil {
			t.Errorf("Sweep(%v): want error", bad)
		}
	}
}

// Wider die-to-die spread must not reduce overkill at a fixed threshold
// near the leakage population.
func TestSpreadWidensTails(t *testing.T) {
	chip, vecs, list := fixture(t)
	tight := DefaultConfig()
	tight.SigmaDie = 0.05
	tight.GoodDies, tight.BadDies = 800, 100
	wide := tight
	wide.SigmaDie = 0.6
	stTight, err := Build(chip, vecs, list, tight)
	if err != nil {
		t.Fatal(err)
	}
	stWide, err := Build(chip, vecs, list, wide)
	if err != nil {
		t.Fatal(err)
	}
	// Threshold at 2x the tight population's max: the wide population
	// must overkill at least as much there.
	th := stTight.ZeroOverkillThreshold() * 2
	if stWide.At(th).Overkill < stTight.At(th).Overkill {
		t.Error("wider spread should not shrink the overkill tail")
	}
}
