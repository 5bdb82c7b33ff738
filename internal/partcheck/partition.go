package partcheck

import (
	"slices"

	"iddqsyn/internal/estimate"
	"iddqsyn/internal/par"
	"iddqsyn/internal/partition"
)

// VerifyPartition audits a live Partition end to end: the netlist and
// exact-cover structure, the estimator-derived bounds in lim, the
// partition's incrementally maintained module-estimate cache, and its
// incrementally updated D_BIC (which a long optimizer run updates
// thousands of times and must still agree with a from-scratch
// evaluation).
func VerifyPartition(p *partition.Partition, lim Limits) *Report {
	c := p.E.A.Circuit
	r := VerifyStructure(c, p.Groups())
	if !r.OK() {
		return r
	}
	// One fresh evaluation per module serves the bounds, the cache audit
	// and the D_BIC sweep. The modules are evaluated and compared on up to
	// GOMAXPROCS goroutines, each keeping its violations apart; they are
	// merged in module order, every bound before any stale estimate, as
	// two loops over the modules would list them.
	k := p.NumModules()
	fresh := make([]*estimate.Module, k)
	bounds, stale := make([][]Violation, k), make([][]Violation, k)
	par.Each(k, func(_, mi int) {
		got := p.ModuleEstimate(mi)
		fresh[mi], bounds[mi] = checkModule(p.E, mi, got.Gates, lim)
		stale[mi] = compareEstimate(p.E, mi, got, fresh[mi])
	})
	if r.Violations = append(r.Violations, slices.Concat(bounds...)...); !r.OK() {
		return r
	}
	r.Violations = append(r.Violations, slices.Concat(stale...)...)
	moduleOf := make([]int, c.NumGates())
	for g := range moduleOf {
		moduleOf[g] = p.ModuleOf(g)
	}
	r.Violations = append(r.Violations, compareDBIc(p.E, moduleOf, fresh, p.Costs().DBIc)...)
	return r
}
