package atpg

import (
	"math/rand"
	"testing"

	"iddqsyn/internal/circuits"
	"iddqsyn/internal/faults"
	"iddqsyn/internal/logicsim"
)

func TestGenerateC17FullCoverage(t *testing.T) {
	c := circuits.C17()
	cfg := faults.DefaultConfig()
	list := faults.Universe(c, cfg, rand.New(rand.NewSource(1)))
	opt := DefaultOptions()
	opt.TargetCoverage = 1.0
	res, err := Generate(c, list, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Coverage() < 0.99 {
		t.Errorf("coverage = %.3f, want ~1.0 on C17 (all faults excitable)", res.Coverage())
	}
	if len(res.Vectors) == 0 {
		t.Fatal("no vectors kept")
	}
	if len(res.Vectors) > 32 {
		t.Errorf("kept %d vectors for C17; compaction should keep the set tiny", len(res.Vectors))
	}
	t.Logf("C17: %d faults, %d vectors, coverage %.3f", res.Total, len(res.Vectors), res.Coverage())
}

func TestGenerateDeterministic(t *testing.T) {
	c := circuits.C17()
	list := faults.Universe(c, faults.DefaultConfig(), rand.New(rand.NewSource(1)))
	opt := DefaultOptions()
	r1, err := Generate(c, list, opt)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Generate(c, list, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Vectors) != len(r2.Vectors) || r1.Detected() != r2.Detected() {
		t.Error("generation must be deterministic for a fixed seed")
	}
}

// An injected stream seeded like opt.Seed must reproduce the Seed-driven
// run bit for bit — the contract callers rely on when threading one
// counted source through a whole study.
func TestGenerateInjectedRandMatchesSeed(t *testing.T) {
	c := circuits.C17()
	list := faults.Universe(c, faults.DefaultConfig(), rand.New(rand.NewSource(1)))
	opt := DefaultOptions()
	bySeed, err := Generate(c, list, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Rand = rand.New(rand.NewSource(opt.Seed))
	byRand, err := Generate(c, list, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(bySeed.Vectors) != len(byRand.Vectors) || bySeed.Detected() != byRand.Detected() {
		t.Errorf("injected rand diverged: %d/%d vectors, %d/%d detections",
			len(bySeed.Vectors), len(byRand.Vectors), bySeed.Detected(), byRand.Detected())
	}
	for i := range bySeed.Vectors {
		for j := range bySeed.Vectors[i] {
			if bySeed.Vectors[i][j] != byRand.Vectors[i][j] {
				t.Fatalf("vector %d bit %d differs", i, j)
			}
		}
	}
}

// Every detection claimed by Generate must hold under independent scalar
// re-simulation.
func TestDetectionsVerifyScalar(t *testing.T) {
	c := circuits.MustISCAS85Like("c432")
	cfg := faults.DefaultConfig()
	cfg.MaxBridges = 100
	list := faults.Universe(c, cfg, rand.New(rand.NewSource(3)))
	opt := DefaultOptions()
	opt.Seed = 7
	res, err := Generate(c, list, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Detected() == 0 {
		t.Fatal("nothing detected")
	}
	s := logicsim.New(c)
	for _, d := range res.Detections {
		if err := s.ApplyBits(res.Vectors[d.Vector]); err != nil {
			t.Fatal(err)
		}
		obs, ex := list[d.Fault].Excited(c, s.Values())
		if !ex {
			t.Fatalf("fault %v claimed detected by vector %d but not excited", &list[d.Fault], d.Vector)
		}
		if obs != d.Observer {
			t.Fatalf("fault %v: observer %d, scalar says %d", &list[d.Fault], d.Observer, obs)
		}
	}
}

func TestEveryKeptVectorDetects(t *testing.T) {
	c := circuits.C17()
	list := faults.Universe(c, faults.DefaultConfig(), rand.New(rand.NewSource(1)))
	res, err := Generate(c, list, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	used := make([]bool, len(res.Vectors))
	for _, d := range res.Detections {
		used[d.Vector] = true
	}
	for i, u := range used {
		if !u {
			t.Errorf("vector %d detects nothing; compaction should have dropped it", i)
		}
	}
}

func TestGenerateRespectsBudget(t *testing.T) {
	c := circuits.MustISCAS85Like("c880")
	cfg := faults.DefaultConfig()
	cfg.MaxBridges = 200
	list := faults.Universe(c, cfg, rand.New(rand.NewSource(1)))
	opt := Options{TargetCoverage: 1.0, MaxVectors: 100, Seed: 1}
	res, err := Generate(c, list, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Generated > 100 {
		t.Errorf("generated %d vectors, budget 100", res.Generated)
	}
}

func TestGenerateEmptyFaultList(t *testing.T) {
	c := circuits.C17()
	res, err := Generate(c, nil, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Coverage() != 1 || len(res.Vectors) != 0 {
		t.Errorf("empty list: coverage=%g vectors=%d", res.Coverage(), len(res.Vectors))
	}
}

func TestGenerateBadOptions(t *testing.T) {
	c := circuits.C17()
	if _, err := Generate(c, nil, Options{TargetCoverage: 0, MaxVectors: 10}); err == nil {
		t.Error("want error for zero coverage target")
	}
	if _, err := Generate(c, nil, Options{TargetCoverage: 1.5, MaxVectors: 10}); err == nil {
		t.Error("want error for coverage > 1")
	}
	if _, err := Generate(c, nil, Options{TargetCoverage: 0.9, MaxVectors: 0}); err == nil {
		t.Error("want error for zero budget")
	}
}

func TestFaultSimMatchesGenerate(t *testing.T) {
	c := circuits.C17()
	list := faults.Universe(c, faults.DefaultConfig(), rand.New(rand.NewSource(1)))
	opt := DefaultOptions()
	opt.TargetCoverage = 1.0
	gen, err := Generate(c, list, opt)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := FaultSim(c, list, gen.Vectors)
	if err != nil {
		t.Fatal(err)
	}
	if sim.Detected() != gen.Detected() {
		t.Errorf("FaultSim detects %d, Generate claimed %d", sim.Detected(), gen.Detected())
	}
}

func TestFaultSimManyVectors(t *testing.T) {
	// More than one 64-pattern batch.
	c := circuits.C17()
	list := faults.Universe(c, faults.DefaultConfig(), rand.New(rand.NewSource(1)))
	rng := rand.New(rand.NewSource(9))
	vectors := make([][]bool, 150)
	for i := range vectors {
		vectors[i] = make([]bool, len(c.Inputs))
		for j := range vectors[i] {
			vectors[i][j] = rng.Intn(2) == 1
		}
	}
	res, err := FaultSim(c, list, vectors)
	if err != nil {
		t.Fatal(err)
	}
	if res.Coverage() < 0.99 {
		t.Errorf("150 random vectors on C17 should cover ~everything, got %.3f", res.Coverage())
	}
	// First-detection vector indices must be ascending per fault order of
	// detection batches; at minimum, every index is within range.
	for _, d := range res.Detections {
		if d.Vector < 0 || d.Vector >= len(vectors) {
			t.Fatalf("detection vector %d out of range", d.Vector)
		}
	}
}

func TestFaultSimEmpty(t *testing.T) {
	c := circuits.C17()
	res, err := FaultSim(c, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Coverage() != 1 {
		t.Error("empty fault list should report full coverage")
	}
}

// §3.4 substrate: ATPG and fault simulation cost (the test-set generation
// the test-application-time estimator assumes precomputed).
func BenchmarkGenerateC880(b *testing.B) {
	b.ReportAllocs()
	c := circuits.MustISCAS85Like("c880")
	cfg := faults.DefaultConfig()
	cfg.MaxBridges = 500
	list := faults.Universe(c, cfg, rand.New(rand.NewSource(1)))
	opt := DefaultOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(c, list, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// TopUp must close most of the random set's coverage gap, proving the
// rest unexcitable.
func TestTopUpClosesCoverageGap(t *testing.T) {
	c := circuits.MustISCAS85Like("c432")
	cfg := faults.DefaultConfig()
	cfg.MaxBridges = 0 // the full bridge universe, including hard pairs
	list := faults.Universe(c, cfg, rand.New(rand.NewSource(2)))
	opt := DefaultOptions()
	opt.MaxVectors = 256 // deliberately starve the random phase
	opt.TargetCoverage = 1.0
	res, err := Generate(c, list, opt)
	if err != nil {
		t.Fatal(err)
	}
	before := res.Detected()
	if before == len(list) {
		t.Skip("random phase already complete; nothing to top up")
	}
	tu, err := TopUp(c, list, res, 2000)
	if err != nil {
		t.Fatal(err)
	}
	after := res.Detected()
	if after != before+tu.NewDetected {
		t.Errorf("bookkeeping: %d + %d != %d", before, tu.NewDetected, after)
	}
	if after+tu.ProvenUnsat+tu.Aborted != len(list) {
		t.Errorf("accounting: %d detected + %d unsat + %d aborted != %d faults",
			after, tu.ProvenUnsat, tu.Aborted, len(list))
	}
	if tu.NewDetected == 0 && tu.ProvenUnsat == 0 {
		t.Error("top-up neither detected nor proved anything")
	}
	// Every appended detection must verify under scalar re-simulation.
	s := logicsim.New(c)
	for _, d := range res.Detections[before:] {
		if err := s.ApplyBits(res.Vectors[d.Vector]); err != nil {
			t.Fatal(err)
		}
		if _, ok := list[d.Fault].Excited(c, s.Values()); !ok {
			t.Fatalf("top-up detection of %v does not verify", &list[d.Fault])
		}
	}
	t.Logf("c432 full universe: random %d/%d -> +%d deterministic vectors, +%d detected, %d proven unexcitable, %d aborted",
		before, len(list), tu.Added, tu.NewDetected, tu.ProvenUnsat, tu.Aborted)
}

// A fault the random phase detects is never touched by TopUp.
func TestTopUpIdempotentOnFullCoverage(t *testing.T) {
	c := circuits.C17()
	list := faults.Universe(c, faults.DefaultConfig(), rand.New(rand.NewSource(1)))
	opt := DefaultOptions()
	opt.TargetCoverage = 1.0
	res, err := Generate(c, list, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Detected() != len(list) {
		t.Skip("C17 random coverage unexpectedly incomplete")
	}
	nVec := len(res.Vectors)
	tu, err := TopUp(c, list, res, 100)
	if err != nil {
		t.Fatal(err)
	}
	if tu.Added != 0 || len(res.Vectors) != nVec {
		t.Error("top-up modified a complete test set")
	}
}

// Deterministic top-up: PODEM justification over the random-resistant
// residue of the full c432 bridge universe. Metrics: new detections and
// proofs per run.
func BenchmarkATPGDeterministicTopUp(b *testing.B) {
	b.ReportAllocs()
	c := circuits.MustISCAS85Like("c432")
	cfg := faults.DefaultConfig()
	cfg.MaxBridges = 0
	list := faults.Universe(c, cfg, rand.New(rand.NewSource(2)))
	opt := DefaultOptions()
	opt.MaxVectors = 256
	opt.TargetCoverage = 1.0
	base, err := Generate(c, list, opt)
	if err != nil {
		b.Fatal(err)
	}
	var newDet, unsat int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := &Result{
			Vectors:    append([][]bool(nil), base.Vectors...),
			Detections: append([]Detection(nil), base.Detections...),
			Total:      base.Total,
		}
		tu, err := TopUp(c, list, res, 2000)
		if err != nil {
			b.Fatal(err)
		}
		newDet, unsat = tu.NewDetected, tu.ProvenUnsat
	}
	b.ReportMetric(float64(newDet), "newDetected")
	b.ReportMetric(float64(unsat), "provenUnsat")
}
