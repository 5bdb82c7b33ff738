// Package electrical provides the closed-form electrical models behind the
// paper's logic-level estimators — sensor sizing from the virtual-rail
// perturbation limit, the BIC-sensor area model, the second-order gate
// delay degradation factor δ(g,t) of §3.2, and the IDDQ settling time Δ(τ)
// of §3.4 — together with small numerical transient simulators used by the
// tests to validate each closed form against the underlying RC network.
//
// Every model validates its physical inputs and reports non-positive or
// non-finite resistances, currents, delays, or thresholds as an error
// rather than a panic, so a malformed cell library or parameter file
// surfaces as a diagnosable failure instead of a crash. Non-finite inputs
// need their own checks — NaN slips through every ordered comparison — and
// their errors wrap ErrNonFinite so callers can recognise a numeric
// blow-up (an upstream overflow or division by zero) as a class.
package electrical

import (
	"errors"
	"fmt"
	"math"
)

// ErrNonFinite is wrapped by every error reporting a NaN or ±Inf input:
// the signature of an upstream numeric blow-up rather than a merely
// out-of-range parameter. errors.Is(err, ErrNonFinite) identifies the
// class across the whole estimate/electrical boundary.
var ErrNonFinite = errors.New("electrical: non-finite value")

// finite reports whether every argument is an ordinary float (not NaN,
// not ±Inf).
func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// SensorROn returns the bypass-device ON resistance Rs* = r*/iDD,max
// (§3.1): the largest resistance keeping the virtual-rail perturbation at
// the maximum transient current within the limit r*. Requirements for r*
// are stringent (100 mV–300 mV), so the feasible Rs is small and its
// delay impact is second-order — which is why the paper fixes Rs at
// exactly this value instead of optimising it per module.
func SensorROn(railLimit, iDDMax float64) (float64, error) {
	if !finite(railLimit, iDDMax) {
		return 0, fmt.Errorf("%w: SensorROn(r*=%g, iDD,max=%g)", ErrNonFinite, railLimit, iDDMax)
	}
	if railLimit <= 0 {
		return 0, fmt.Errorf("electrical: non-positive rail limit r* = %g", railLimit)
	}
	if iDDMax <= 0 {
		return 0, fmt.Errorf("electrical: non-positive iDD,max = %g", iDDMax)
	}
	return railLimit / iDDMax, nil
}

// RailPerturbation returns the worst-case virtual-rail voltage excursion
// Rs·iDD,max — the quantity the constraint of §3.1 bounds by r*.
func RailPerturbation(rs, iDDMax float64) float64 {
	return rs * iDDMax
}

// SensorArea evaluates the paper's BIC-sensor area model A0 + A1/Rs: a
// fixed detection-circuitry term plus a sensing-element/bypass-device term
// inversely proportional to the ON resistance (a lower Rs needs a wider
// MOS bypass switch).
func SensorArea(a0, a1, rs float64) (float64, error) {
	if !finite(a0, a1, rs) {
		return 0, fmt.Errorf("%w: SensorArea(a0=%g, a1=%g, rs=%g)", ErrNonFinite, a0, a1, rs)
	}
	if rs <= 0 {
		return 0, fmt.Errorf("electrical: non-positive Rs = %g", rs)
	}
	return a0 + a1/rs, nil
}

// DelayDegradation returns the gate delay degradation factor δ(g,t) of
// §3.2, from a second-order model of the discharge network: a gate with
// equivalent pull-down resistance rg and nominal delay d, sharing a
// virtual rail (bypass resistance rs, parasitic capacitance cs) with
// n(t) simultaneously switching gates.
//
// The first-order term n·Rs/Rg is the series resistance added by the
// bypass device, scaled by the rail current of all n switchers. The
// second-order factor (1 − exp(−d/(Rs·Cs))) models the rail capacitance
// holding the virtual ground down: a gate much faster than the rail time
// constant never sees the perturbation. With cs → 0 the model reduces to
// the exact series-resistance result 1 + n·Rs/Rg (see the package tests,
// which verify this against a transient simulation of the network).
//
// It is Degrade applied to DelayDamping. The damping depends only on the
// gate's (d, rg) and the module's (rs, cs), so a caller finishing many
// gates of one module can compute it once per distinct (d, rg).
func DelayDegradation(n int, rs, rg, d, cs float64) (float64, error) {
	damp, err := DelayDamping(rs, rg, d, cs)
	if err != nil {
		return 0, err
	}
	return Degrade(n, rs, rg, damp), nil
}

// DelayDamping returns the second-order factor 1 − exp(−d/(rs·cs)) of
// DelayDegradation (1 when cs ≤ 0), after validating every input of the
// model: non-finite values wrap ErrNonFinite, and rs, rg and d must be
// positive.
func DelayDamping(rs, rg, d, cs float64) (float64, error) {
	if !finite(rs, rg, d, cs) {
		return 0, fmt.Errorf("%w: DelayDegradation(rs=%g, rg=%g, d=%g, cs=%g)", ErrNonFinite, rs, rg, d, cs)
	}
	if rs <= 0 || rg <= 0 || d <= 0 {
		return 0, fmt.Errorf("electrical: non-positive rs=%g/rg=%g/d=%g", rs, rg, d)
	}
	if cs <= 0 {
		return 1, nil
	}
	return 1 - math.Exp(-d/(rs*cs)), nil
}

// Degrade returns δ = 1 + n·rs/rg·damp for a damping factor from
// DelayDamping of the same rs and rg; n < 1 counts as 1 (the gate itself
// switches). It does no validation of its own.
func Degrade(n int, rs, rg, damp float64) float64 {
	if n < 1 {
		n = 1
	}
	return 1 + float64(n)*rs/rg*damp
}

// SettlingTime returns Δ(τ) of §3.4: the time for the transient supply
// current, decaying exponentially with the BIC-sensor time constant
// τ = Rs·Cs, to fall from its peak below the sensing threshold, after
// which the quiescent current can be measured. The result is never
// negative; a peak already below threshold settles instantly.
func SettlingTime(tau, iPeak, iThreshold float64) (float64, error) {
	if !finite(tau, iPeak, iThreshold) {
		return 0, fmt.Errorf("%w: SettlingTime(tau=%g, iPeak=%g, iTh=%g)", ErrNonFinite, tau, iPeak, iThreshold)
	}
	if tau <= 0 || iPeak <= 0 || iThreshold <= 0 {
		return 0, fmt.Errorf("electrical: non-positive settling parameters tau=%g/iPeak=%g/iTh=%g",
			tau, iPeak, iThreshold)
	}
	if iPeak <= iThreshold {
		return 0, nil
	}
	return tau * math.Log(iPeak/iThreshold), nil
}
