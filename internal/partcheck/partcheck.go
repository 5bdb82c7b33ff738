// Package partcheck statically verifies PART-IDDQ partitions: given a
// netlist and a grouping of its logic gates into modules, it checks —
// without running any simulation — that the grouping is an exact cover,
// that the netlist it refers to is a consistent DAG, and that every
// module satisfies the estimator-derived feasibility bounds of §2/§3
// (discriminability against IDDQ,th, settling time, sensor area, peak
// current, and the Rs = r*/îDD,max rail-perturbation sizing identity).
//
// The checks deliberately do not trust the bookkeeping of package
// partition: the cover check re-counts gates from the raw groups, and
// the DAG check runs its own Kahn walk instead of the circuit's cached
// topological order. partcheck is the independent auditor that optimizer
// results, checkpoints and experiment reports are validated against, so
// it must not share failure modes with the code it audits.
//
// The per-module fresh evaluations run on up to GOMAXPROCS goroutines.
// Each module's violations are kept apart and merged in module order, so
// a Report lists them as one loop over the modules would, for any worker
// count, and a panic in an evaluation (a poisoned estimate) reaches the
// caller with its value intact.
package partcheck

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"iddqsyn/internal/circuit"
	"iddqsyn/internal/estimate"
	"iddqsyn/internal/par"
)

// Named constraints, reported in Violation.Constraint. Every violation
// names exactly one of these so that callers can fail loudly with the
// violated constraint spelled out.
const (
	ConstraintCover            = "gate-cover"        // exact cover of the logic-gate set
	ConstraintAdjacency        = "fanin-fanout"      // fanin/fanout cross-consistency
	ConstraintAcyclic          = "acyclic"           // netlist must be a DAG
	ConstraintDiscriminability = "discriminability"  // d(M) = IDDQ,th/IDDQ,nd ≥ d
	ConstraintSettle           = "settling-time"     // Δ(τ) ≤ limit
	ConstraintSensorArea       = "sensor-area"       // A0 + A1/Rs ≤ limit
	ConstraintPeakCurrent      = "peak-current"      // îDD,max ≤ limit
	ConstraintRailSizing       = "rail-perturbation" // Rs·îDD,max = r* identity
	ConstraintStaleEstimate    = "stale-estimate"    // cached estimates match recomputation
)

// Violation is one named constraint failure.
type Violation struct {
	Constraint string // one of the Constraint* names
	Module     int    // module index, or -1 for circuit/cover-level violations
	Detail     string // human-readable specifics
}

// String renders "constraint: detail" with the module named when known.
func (v Violation) String() string {
	if v.Module >= 0 {
		return fmt.Sprintf("%s: module %d: %s", v.Constraint, v.Module, v.Detail)
	}
	return fmt.Sprintf("%s: %s", v.Constraint, v.Detail)
}

// Limits bounds the per-module estimates. A zero value disables that
// bound, so the zero Limits checks structure only.
type Limits struct {
	MinDiscriminability float64 // require d(M) ≥ this
	MaxSettle           float64 // require Δ(τ) ≤ this, s
	MaxSensorArea       float64 // require per-module sensor area ≤ this
	MaxPeakCurrent      float64 // require îDD,max ≤ this, A
}

// bounded reports whether lim sets any bound.
func (lim Limits) bounded() bool {
	return lim.MinDiscriminability > 0 || lim.MaxSettle > 0 || lim.MaxSensorArea > 0 || lim.MaxPeakCurrent > 0
}

// StructureOnly returns limits that check cover and netlist consistency
// but no estimator-derived bound — the right setting for checkpoint
// loads, where a mid-run population may legitimately hold infeasible
// individuals.
func StructureOnly() Limits { return Limits{} }

// Feasibility returns the limits matching the optimizer's feasibility
// constraint Γ(Π): minimum discriminability d, everything else
// unbounded — the right setting for final results.
func Feasibility(minDiscriminability float64) Limits {
	return Limits{MinDiscriminability: minDiscriminability}
}

// Report collects every violation found in one Verify run.
type Report struct {
	Circuit    string
	Modules    int
	Violations []Violation
}

// OK reports whether no constraint was violated.
func (r *Report) OK() bool { return len(r.Violations) == 0 }

// Err returns nil when the report is clean, otherwise an error naming
// the first violated constraint and the total violation count.
func (r *Report) Err() error {
	if r.OK() {
		return nil
	}
	if len(r.Violations) == 1 {
		return fmt.Errorf("partcheck: %s: %s", r.Circuit, r.Violations[0])
	}
	return fmt.Errorf("partcheck: %s: %s (and %d more violations)",
		r.Circuit, r.Violations[0], len(r.Violations)-1)
}

// String renders the full violation list, one per line.
func (r *Report) String() string {
	if r.OK() {
		return fmt.Sprintf("partcheck: %s: %d modules, all constraints hold", r.Circuit, r.Modules)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "partcheck: %s: %d violations\n", r.Circuit, len(r.Violations))
	for _, v := range r.Violations {
		fmt.Fprintf(&sb, "  %s\n", v)
	}
	return strings.TrimRight(sb.String(), "\n")
}

// Verify checks groups against the circuit and, when e is non-nil and a
// bound in lim is set, against the per-module estimates, evaluated on up
// to GOMAXPROCS goroutines; with no bound set it evaluates nothing.
// Structural violations (inconsistent netlist, non-cover grouping)
// suppress the module checks, because estimates over a broken grouping
// are meaningless.
func Verify(c *circuit.Circuit, groups [][]int, e *estimate.Estimator, lim Limits) *Report {
	r := &Report{Circuit: c.Name, Modules: len(groups)}
	checkAdjacency(c, r)
	checkAcyclic(c, r)
	checkCover(c, groups, r)
	if !r.OK() || e == nil || !lim.bounded() {
		return r
	}
	vs := make([][]Violation, len(groups))
	par.Each(len(groups), func(_, mi int) {
		_, vs[mi] = checkModule(e, mi, groups[mi], lim)
	})
	r.Violations = append(r.Violations, slices.Concat(vs...)...)
	return r
}

// VerifyStructure is Verify without estimator bounds.
func VerifyStructure(c *circuit.Circuit, groups [][]int) *Report {
	return Verify(c, groups, nil, StructureOnly())
}

// checkAdjacency validates the netlist's own bookkeeping: IDs match
// slice positions, every fanin/fanout reference is in range, primary
// inputs have no fanin, and the fanin and fanout lists mirror each
// other exactly (g drives h iff h lists g as a driver).
func checkAdjacency(c *circuit.Circuit, r *Report) {
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
			return // indices are untrustworthy; stop before using them
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
			if !contains(c.Gates[f].Fanout, i) {
				bad("gate %s lists %s as driver, but %s's fanout omits it",
					g.Name, c.Gates[f].Name, c.Gates[f].Name)
			}
		}
		for _, f := range g.Fanout {
			if f < 0 || f >= n {
				bad("gate %s fanout %d out of range [0,%d)", g.Name, f, n)
				continue
			}
			if !contains(c.Gates[f].Fanin, i) {
				bad("gate %s lists %s in fanout, but %s's fanin omits it",
					g.Name, c.Gates[f].Name, c.Gates[f].Name)
			}
		}
	}
}

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// checkAcyclic runs an independent Kahn walk over the fanin edges. It
// does not call Circuit.TopoOrder, which panics on cycles and caches its
// result — an auditor must be able to report a cyclic netlist.
func checkAcyclic(c *circuit.Circuit, r *Report) {
	n := len(c.Gates)
	indeg := make([]int, n)
	for i := range c.Gates {
		for _, f := range c.Gates[i].Fanin {
			if f >= 0 && f < n {
				indeg[i]++
			}
		}
	}
	queue := make([]int, 0, n)
	for i, d := range indeg {
		if d == 0 {
			queue = append(queue, i)
		}
	}
	visited := 0
	for len(queue) > 0 {
		id := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		visited++
		for _, f := range c.Gates[id].Fanout {
			if f < 0 || f >= n {
				continue
			}
			indeg[f]--
			if indeg[f] == 0 {
				queue = append(queue, f)
			}
		}
	}
	if visited != n {
		var cyc []string
		for i, d := range indeg {
			if d > 0 && len(cyc) < 8 {
				cyc = append(cyc, c.Gates[i].Name)
			}
		}
		r.Violations = append(r.Violations, Violation{
			Constraint: ConstraintAcyclic, Module: -1,
			Detail: fmt.Sprintf("%d gates on cycles (e.g. %s)", n-visited, strings.Join(cyc, ", ")),
		})
	}
}

// checkCover verifies the grouping is an exact cover of the logic-gate
// set: every referenced ID is a real logic gate, no gate appears twice,
// no module is empty, and no logic gate is left out.
func checkCover(c *circuit.Circuit, groups [][]int, r *Report) {
	bad := func(mi int, format string, args ...interface{}) {
		r.Violations = append(r.Violations, Violation{
			Constraint: ConstraintCover, Module: mi,
			Detail: fmt.Sprintf(format, args...),
		})
	}
	owner := make(map[int]int, c.NumLogicGates())
	for mi, gates := range groups {
		if len(gates) == 0 {
			bad(mi, "empty module")
			continue
		}
		for _, g := range gates {
			if g < 0 || g >= len(c.Gates) {
				bad(mi, "gate ID %d out of range [0,%d)", g, len(c.Gates))
				continue
			}
			if c.Gates[g].Type == circuit.Input {
				bad(mi, "primary input %s grouped as a logic gate", c.Gates[g].Name)
				continue
			}
			if prev, dup := owner[g]; dup {
				bad(mi, "gate %s already in module %d", c.Gates[g].Name, prev)
				continue
			}
			owner[g] = mi
		}
	}
	if missing := c.NumLogicGates() - len(owner); missing > 0 {
		var names []string
		for _, id := range c.LogicGates() {
			if _, ok := owner[id]; !ok && len(names) < 8 {
				names = append(names, c.Gates[id].Name)
			}
		}
		bad(-1, "%d of %d logic gates unassigned (e.g. %s)",
			missing, c.NumLogicGates(), strings.Join(names, ", "))
	}
}

// checkModule evaluates one module's estimates, tests each bound enabled
// in lim, and returns the estimates for the callers' further audits with
// the module's violations. The Rs·îDD,max = r* sizing identity is
// compareEstimate's. It writes nothing shared, so the callers run it on
// every module at once (par.Each) and merge the violations in module
// order, as one loop over the modules would list them.
func checkModule(e *estimate.Estimator, mi int, gates []int, lim Limits) (*estimate.Module, []Violation) {
	m := e.EvalModule(gates)
	var out []Violation
	bad := func(constraint, format string, args ...interface{}) {
		out = append(out, Violation{
			Constraint: constraint, Module: mi,
			Detail: fmt.Sprintf(format, args...),
		})
	}
	if lim.MinDiscriminability > 0 {
		if d := m.Discriminability(e.P.IDDQth); d < lim.MinDiscriminability {
			bad(ConstraintDiscriminability,
				"d(M) = IDDQ,th/IDDQ,nd = %.3g/%.3g = %.3g < required %.3g",
				e.P.IDDQth, m.LeakND, d, lim.MinDiscriminability)
		}
	}
	if lim.MaxSettle > 0 && m.Settle > lim.MaxSettle {
		bad(ConstraintSettle, "Δ(τ) = %.3gs > limit %.3gs", m.Settle, lim.MaxSettle)
	}
	if lim.MaxSensorArea > 0 && m.SensorArea > lim.MaxSensorArea {
		bad(ConstraintSensorArea, "A0 + A1/Rs = %.4g > limit %.4g", m.SensorArea, lim.MaxSensorArea)
	}
	if lim.MaxPeakCurrent > 0 && m.IDDMax > lim.MaxPeakCurrent {
		bad(ConstraintPeakCurrent, "îDD,max = %.3gA > limit %.3gA", m.IDDMax, lim.MaxPeakCurrent)
	}
	return m, out
}

// CompareEstimate audits a caller-held module estimate — a partition's
// incrementally maintained cache, or figures deserialised from a report —
// against a fresh evaluation of the same gate set. It returns stale-value
// violations plus a check of the Rs·îDD,max = r* sizing identity, which
// is exact in the model: any drift means the cached estimates no longer
// describe the module they claim to.
func CompareEstimate(e *estimate.Estimator, mi int, got *estimate.Module) []Violation {
	return compareEstimate(e, mi, got, e.EvalModule(got.Gates))
}

// compareEstimate is CompareEstimate against a given fresh evaluation.
func compareEstimate(e *estimate.Estimator, mi int, got, fresh *estimate.Module) []Violation {
	var out []Violation
	bad := func(constraint, format string, args ...interface{}) {
		out = append(out, Violation{
			Constraint: constraint, Module: mi,
			Detail: fmt.Sprintf(format, args...),
		})
	}
	if got.IDDMax > 0 && got.Rs > 0 {
		if rel := math.Abs(got.Rs*got.IDDMax-e.P.RailLimit) / e.P.RailLimit; rel > 1e-9 {
			bad(ConstraintRailSizing,
				"Rs·îDD,max = %.6g V, want r* = %.6g V (relative error %.2g)",
				got.Rs*got.IDDMax, e.P.RailLimit, rel)
		}
	}
	cmp := func(name string, gotV, want float64) {
		if !closeTo(gotV, want) {
			bad(ConstraintStaleEstimate, "%s = %.6g, recomputed %.6g", name, gotV, want)
		}
	}
	cmp("îDD,max", got.IDDMax, fresh.IDDMax)
	cmp("Rs", got.Rs, fresh.Rs)
	cmp("IDDQ,nd", got.LeakND, fresh.LeakND)
	cmp("sensor area", got.SensorArea, fresh.SensorArea)
	cmp("Δ(τ)", got.Settle, fresh.Settle)
	// The integer terms are delta-maintained under moves, so they must
	// match exactly.
	if got.Separation != fresh.Separation {
		bad(ConstraintStaleEstimate, "S(M) = %d, recomputed %d", got.Separation, fresh.Separation)
	}
	if !slices.Equal(got.Activity, fresh.Activity) {
		bad(ConstraintStaleEstimate, "n(t) = %v, recomputed %v", got.Activity, fresh.Activity)
	}
	// The degraded gate delays feed the incremental D_BIC sweep, whose
	// result is bit-identical to a full one only if they are exact.
	if len(got.Delay) != len(fresh.Delay) {
		bad(ConstraintStaleEstimate, "%d degraded delays, recomputed %d", len(got.Delay), len(fresh.Delay))
		return out
	}
	for i, d := range got.Delay {
		if math.Float64bits(d) != math.Float64bits(fresh.Delay[i]) {
			bad(ConstraintStaleEstimate, "degraded delay of gate %d = %g, recomputed %g",
				fresh.Gates[i], d, fresh.Delay[i])
			break
		}
	}
	return out
}

// compareDBIc audits a D_BIC figure against a full longest-path sweep
// over fresh module estimates. The partition updates D_BIC incrementally,
// re-propagating arrival times only from the modules a move touched, and
// that update is exact by construction, so any difference is a stale
// estimate.
func compareDBIc(e *estimate.Estimator, moduleOf []int, fresh []*estimate.Module, got float64) []Violation {
	want := e.BICDelay(moduleOf, fresh)
	if math.Float64bits(got) == math.Float64bits(want) {
		return nil
	}
	return []Violation{{
		Constraint: ConstraintStaleEstimate, Module: -1,
		Detail: fmt.Sprintf("D_BIC = %.17g s, full sweep %.17g s", got, want),
	}}
}

// closeTo compares within float-noise relative tolerance.
func closeTo(a, b float64) bool {
	if a == b {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) <= 1e-9*scale
}
