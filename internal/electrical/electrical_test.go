package electrical

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// unwrap returns a helper that unwraps a model result inside a test,
// failing the test on error.
func unwrap(t *testing.T) func(float64, error) float64 {
	return func(v float64, err error) float64 {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
}

func TestSensorROn(t *testing.T) {
	ok := unwrap(t)
	// 200 mV limit at 10 mA peak -> 20 Ω.
	if got := ok(SensorROn(0.2, 10e-3)); !close(got, 20, 1e-9) {
		t.Errorf("SensorROn = %g, want 20", got)
	}
}

func TestSensorROnRejectsBadInput(t *testing.T) {
	if _, err := SensorROn(0.2, 0); err == nil {
		t.Error("want error for iDDmax <= 0")
	}
	if _, err := SensorROn(0, 1e-3); err == nil {
		t.Error("want error for rail limit <= 0")
	}
}

// Property: the rail perturbation at Rs = SensorROn(r*, i) is exactly r*,
// and any larger current violates the limit.
func TestSensorSizingMeetsLimit(t *testing.T) {
	prop := func(limMilliV, peakMilliA uint8) bool {
		lim := 0.1 + float64(limMilliV%30)*0.01 // 100..390 mV
		peak := 1e-3 * (1 + float64(peakMilliA%50))
		rs, err := SensorROn(lim, peak)
		if err != nil {
			return false
		}
		if !close(RailPerturbation(rs, peak), lim, 1e-12) {
			return false
		}
		return RailPerturbation(rs, peak*1.5) > lim
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestSensorAreaModel(t *testing.T) {
	ok := unwrap(t)
	if got := ok(SensorArea(100, 2000, 20)); !close(got, 200, 1e-9) {
		t.Errorf("SensorArea = %g, want 200", got)
	}
	// Halving Rs (bigger bypass device) grows only the A1 term.
	if got := ok(SensorArea(100, 2000, 10)); !close(got, 300, 1e-9) {
		t.Errorf("SensorArea = %g, want 300", got)
	}
}

func TestSensorAreaRejectsBadInput(t *testing.T) {
	if _, err := SensorArea(1, 1, 0); err == nil {
		t.Error("want error for Rs <= 0")
	}
}

func TestDelayDegradationLimits(t *testing.T) {
	ok := unwrap(t)
	// cs = 0: exact series-resistance result 1 + n·Rs/Rg.
	if got := ok(DelayDegradation(3, 10, 1000, 1e-9, 0)); !close(got, 1.03, 1e-9) {
		t.Errorf("δ(cs=0) = %g, want 1.03", got)
	}
	// Huge Cs: the rail never moves within one gate delay, δ → 1.
	if got := ok(DelayDegradation(3, 10, 1000, 1e-9, 1)); !close(got, 1.0, 1e-6) {
		t.Errorf("δ(cs→∞) = %g, want ≈1", got)
	}
	// n < 1 clamps to 1.
	if got := ok(DelayDegradation(0, 10, 1000, 1e-9, 0)); !close(got, 1.01, 1e-9) {
		t.Errorf("δ(n=0) = %g, want 1.01", got)
	}
}

// Property: δ ≥ 1 and is nondecreasing in the activity n.
func TestDelayDegradationMonotoneInActivity(t *testing.T) {
	prop := func(n uint8, rsUnits, csUnits uint8) bool {
		rs := 1 + float64(rsUnits%100)
		cs := float64(csUnits) * 1e-13
		prev := 0.0
		for k := 1; k <= int(n%16)+2; k++ {
			d, err := DelayDegradation(k, rs, 2e3, 1e-9, cs)
			if err != nil || d < 1 || d < prev {
				return false
			}
			prev = d
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// discharge unwraps a transient-simulation result inside a test.
func discharge(t *testing.T, vdd float64, n int, rg, cg, rs, cs, dt float64) DischargeResult {
	t.Helper()
	res, err := SimulateGateDischarge(vdd, n, rg, cg, rs, cs, dt)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// The cs = 0 closed form must match the transient simulation of the same
// network exactly (both reduce to a single RC with series resistance
// rg + n·rs).
func TestDelayDegradationAgainstTransientCsZero(t *testing.T) {
	ok := unwrap(t)
	const (
		vdd = 5.0
		rg  = 2e3
		cg  = 50e-15
		dt  = 1e-14
	)
	base := discharge(t, vdd, 1, rg, cg, 0, 0, dt)
	wantBase := rg * cg * math.Ln2
	if !close(base.T50, wantBase, wantBase*0.01) {
		t.Fatalf("baseline T50 = %g, analytic %g", base.T50, wantBase)
	}
	for _, n := range []int{1, 2, 4, 8} {
		for _, rs := range []float64{20, 50, 200} {
			sim := discharge(t, vdd, n, rg, cg, rs, 0, dt)
			measured := sim.T50 / base.T50
			formula := ok(DelayDegradation(n, rs, rg, rg*cg*math.Ln2, 0))
			if !close(measured, formula, formula*0.02) {
				t.Errorf("n=%d rs=%g: measured δ=%.4f formula δ=%.4f", n, rs, measured, formula)
			}
		}
	}
}

// With cs > 0 the closed form must stay qualitatively right: δ ≥ 1,
// damped below the cs = 0 value, and the transient simulation must agree
// that a large rail capacitance reduces the degradation.
func TestDelayDegradationDampingAgainstTransient(t *testing.T) {
	ok := unwrap(t)
	const (
		vdd = 5.0
		rg  = 2e3
		cg  = 50e-15
		rs  = 100.0
		dt  = 1e-14
	)
	base := discharge(t, vdd, 1, rg, cg, 0, 0, dt)
	d := rg * cg * math.Ln2
	deltaNoCs := discharge(t, vdd, 4, rg, cg, rs, 0, dt).T50 / base.T50
	deltaBigCs := discharge(t, vdd, 4, rg, cg, rs, 100*cg, dt).T50 / base.T50
	if deltaBigCs >= deltaNoCs {
		t.Errorf("transient: rail capacitance should reduce degradation (%.4f vs %.4f)",
			deltaBigCs, deltaNoCs)
	}
	fNoCs := ok(DelayDegradation(4, rs, rg, d, 0))
	fBigCs := ok(DelayDegradation(4, rs, rg, d, 100*cg))
	if fBigCs >= fNoCs {
		t.Errorf("formula: damping failed (%.4f vs %.4f)", fBigCs, fNoCs)
	}
	if fBigCs < 1 || deltaBigCs < 1 {
		t.Error("degradation factors must never fall below 1")
	}
}

func TestSettlingTime(t *testing.T) {
	ok := unwrap(t)
	tau := 2e-9
	// ln(1000) τ for a 1 mA peak against a 1 µA threshold.
	got := ok(SettlingTime(tau, 1e-3, 1e-6))
	want := tau * math.Log(1000)
	if !close(got, want, want*1e-9) {
		t.Errorf("SettlingTime = %g, want %g", got, want)
	}
	if ok(SettlingTime(tau, 1e-7, 1e-6)) != 0 {
		t.Error("peak below threshold must settle instantly")
	}
}

// SettlingTime must agree with the step-wise decay simulation within one
// time step.
func TestSettlingTimeAgainstDecaySim(t *testing.T) {
	ok := unwrap(t)
	const dt = 1e-12
	for _, tau := range []float64{1e-9, 5e-9, 20e-9} {
		analytic := ok(SettlingTime(tau, 2e-3, 1e-6))
		simulated := ok(DecayToThreshold(2e-3, tau, 1e-6, dt))
		if math.Abs(analytic-simulated) > 2*dt+1e-15 {
			t.Errorf("tau=%g: analytic %g vs simulated %g", tau, analytic, simulated)
		}
	}
}

// Property: settling time is monotone in τ and in the peak/threshold
// ratio.
func TestSettlingTimeMonotone(t *testing.T) {
	settle := func(tau, peak, th float64) float64 {
		v, err := SettlingTime(tau, peak, th)
		if err != nil {
			return math.NaN()
		}
		return v
	}
	prop := func(a, b uint8) bool {
		tau1 := 1e-9 * (1 + float64(a%20))
		tau2 := tau1 * 2
		if !(settle(tau2, 1e-3, 1e-6) > settle(tau1, 1e-3, 1e-6)) {
			return false
		}
		p1 := 1e-5 * (1 + float64(b%40))
		return settle(tau1, p1*10, 1e-6) > settle(tau1, p1, 1e-6)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// rail unwraps a rail-simulation result inside a test.
func rail(t *testing.T, pulses []Pulse, rs, cs, dt, tEnd float64) RailResult {
	t.Helper()
	res, err := SimulateRail(pulses, rs, cs, dt, tEnd)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSimulateRailPeakBoundedByEstimate(t *testing.T) {
	// The logic-level estimate Rs·Σpeaks must upper-bound the simulated
	// rail excursion for any pulse alignment — the pessimism the paper
	// accepts for computational efficiency (§3.1).
	pulses := []Pulse{
		{Start: 0, Duration: 1e-9, Peak: 300e-6},
		{Start: 0.2e-9, Duration: 1e-9, Peak: 260e-6},
		{Start: 1.5e-9, Duration: 1e-9, Peak: 420e-6},
	}
	const rs = 50.0
	var sumPeaks float64
	for _, p := range pulses {
		sumPeaks += p.Peak
	}
	estimate := RailPerturbation(rs, sumPeaks)
	for _, cs := range []float64{0, 1e-13, 1e-12} {
		res := rail(t, pulses, rs, cs, 1e-12, 4e-9)
		if res.PeakVoltage > estimate {
			t.Errorf("cs=%g: simulated peak %g exceeds estimate %g", cs, res.PeakVoltage, estimate)
		}
		if res.PeakVoltage <= 0 {
			t.Errorf("cs=%g: no rail excursion simulated", cs)
		}
	}
}

func TestSimulateRailAlignedPulsesApproachEstimate(t *testing.T) {
	// With perfectly aligned pulses and no rail capacitance, the simulated
	// peak equals the estimate exactly.
	pulses := []Pulse{
		{Start: 0, Duration: 1e-9, Peak: 300e-6},
		{Start: 0, Duration: 1e-9, Peak: 200e-6},
	}
	res := rail(t, pulses, 100, 0, 1e-13, 2e-9)
	want := RailPerturbation(100, 500e-6)
	if !close(res.PeakVoltage, want, want*0.01) {
		t.Errorf("aligned peak = %g, want %g", res.PeakVoltage, want)
	}
}

func TestSimulateRailDischargesAtEnd(t *testing.T) {
	pulses := []Pulse{{Start: 0, Duration: 0.5e-9, Peak: 1e-3}}
	res := rail(t, pulses, 50, 1e-13, 1e-13, 5e-9)
	if res.EndVoltage > 1e-6 {
		t.Errorf("rail should have discharged, end voltage %g", res.EndVoltage)
	}
	if !close(res.PeakCurrent, 1e-3, 1e-6) {
		t.Errorf("peak current %g, want ≈1e-3", res.PeakCurrent)
	}
}

func TestPulseShape(t *testing.T) {
	p := Pulse{Start: 1, Duration: 2, Peak: 10}
	cases := map[float64]float64{
		0.5: 0, 1: 0, 2: 10, 1.5: 5, 2.5: 5, 3: 0, 4: 0,
	}
	for tt, want := range cases {
		if got := p.current(tt); !close(got, want, 1e-12) {
			t.Errorf("current(%g) = %g, want %g", tt, got, want)
		}
	}
}

// Every model must reject non-positive physical parameters with a
// descriptive error — not a panic — so bad cell libraries or parameter
// files fail diagnosably.
func TestRejectsBadParameters(t *testing.T) {
	assertErr := func(name string, err error) {
		t.Helper()
		if err == nil {
			t.Errorf("%s: want error", name)
			return
		}
		if !strings.Contains(err.Error(), "electrical:") {
			t.Errorf("%s: error %q not attributed to the package", name, err)
		}
	}
	_, err := DelayDegradation(1, 0, 1, 1, 0)
	assertErr("DelayDegradation", err)
	_, err = SettlingTime(0, 1, 1)
	assertErr("SettlingTime", err)
	_, err = SimulateRail(nil, 0, 0, 1, 1)
	assertErr("SimulateRail", err)
	_, err = SimulateGateDischarge(0, 1, 1, 1, 1, 0, 1)
	assertErr("SimulateGateDischarge", err)
	_, err = DecayToThreshold(0, 1, 1, 1)
	assertErr("DecayToThreshold", err)
}

func close(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps
}

// NaN slips through every ordered comparison, so the non-positive guards
// alone would let a poisoned estimate propagate silently; each model must
// reject non-finite inputs with an error wrapping ErrNonFinite.
func TestNonFiniteInputsRejected(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		err  error
	}{
		{"SensorROn(NaN current)", func() error { _, err := SensorROn(0.2, nan); return err }()},
		{"SensorROn(Inf limit)", func() error { _, err := SensorROn(inf, 1e-3); return err }()},
		{"SensorArea(NaN rs)", func() error { _, err := SensorArea(1, 1, nan); return err }()},
		{"DelayDegradation(Inf rg)", func() error { _, err := DelayDegradation(2, 10, inf, 1, 0); return err }()},
		{"DelayDegradation(NaN cs)", func() error { _, err := DelayDegradation(2, 10, 100, 1, nan); return err }()},
		{"SettlingTime(NaN peak)", func() error { _, err := SettlingTime(1e-9, nan, 1e-6); return err }()},
	}
	for _, c := range cases {
		if c.err == nil {
			t.Errorf("%s: accepted a non-finite input", c.name)
			continue
		}
		if !errors.Is(c.err, ErrNonFinite) {
			t.Errorf("%s: error %v does not wrap ErrNonFinite", c.name, c.err)
		}
	}
}

// DelayDegradation is Degrade applied to DelayDamping, and both equal the
// single-expression model 1 + n·Rs/Rg·(1 − exp(−d/(Rs·Cs))) bit for bit,
// so callers that compute the damping once per (d, rg) get the same
// factors. Invalid inputs fail DelayDamping and DelayDegradation with the
// same error: ErrNonFinite for NaN or ±Inf, a non-positive error for
// rs, rg or d ≤ 0.
func TestDelayDegradationIsDegradeOfDamping(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	logUniform := func(lo, hi float64) float64 {
		return math.Exp(math.Log(lo) + rng.Float64()*(math.Log(hi)-math.Log(lo)))
	}
	for i := 0; i < 10000; i++ {
		n := rng.Intn(60) - 2
		rs, rg, d := logUniform(1e-2, 1e4), logUniform(10, 1e6), logUniform(1e-13, 1e-7)
		cs := 0.0
		if i%8 != 0 {
			cs = logUniform(1e-16, 1e-9)
		}
		got, err := DelayDegradation(n, rs, rg, d, cs)
		if err != nil {
			t.Fatal(err)
		}
		damp, err := DelayDamping(rs, rg, d, cs)
		if err != nil {
			t.Fatal(err)
		}
		want := 1.0
		if cs > 0 {
			want = 1 - math.Exp(-d/(rs*cs))
		}
		want = 1 + float64(max(n, 1))*rs/rg*want
		if split := Degrade(n, rs, rg, damp); math.Float64bits(got) != math.Float64bits(split) ||
			math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("n=%d rs=%g rg=%g d=%g cs=%g: DelayDegradation %v, Degrade∘DelayDamping %v, formula %v",
				n, rs, rg, d, cs, got, split, want)
		}
	}

	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		rs, rg, d, cs float64
		nonFinite     bool
	}{
		{nan, 1e3, 1e-9, 1e-12, true},
		{10, inf, 1e-9, 1e-12, true},
		{10, 1e3, -inf, 1e-12, true},
		{10, 1e3, 1e-9, nan, true},
		{0, 1e3, 1e-9, 1e-12, false},
		{10, -1, 1e-9, 1e-12, false},
		{10, 1e3, 0, 0, false},
	} {
		_, errDeg := DelayDegradation(2, c.rs, c.rg, c.d, c.cs)
		_, errDamp := DelayDamping(c.rs, c.rg, c.d, c.cs)
		if errDeg == nil || errDamp == nil || errDeg.Error() != errDamp.Error() {
			t.Errorf("%+v: DelayDegradation error %v, DelayDamping error %v; want the same error", c, errDeg, errDamp)
			continue
		}
		if errors.Is(errDeg, ErrNonFinite) != c.nonFinite || errors.Is(errDamp, ErrNonFinite) != c.nonFinite {
			t.Errorf("%+v: errors %v / %v; wrap ErrNonFinite = %v wanted", c, errDeg, errDamp, c.nonFinite)
		}
	}
}
