package partcheck

import (
	"iddqsyn/internal/estimate"
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
	// and the D_BIC sweep.
	fresh := make([]*estimate.Module, p.NumModules())
	for mi := range fresh {
		fresh[mi] = checkModule(p.E, mi, p.ModuleEstimate(mi).Gates, lim, r)
	}
	if !r.OK() {
		return r
	}
	for mi, m := range fresh {
		r.Violations = append(r.Violations, compareEstimate(p.E, mi, p.ModuleEstimate(mi), m)...)
	}
	moduleOf := make([]int, c.NumGates())
	for g := range moduleOf {
		moduleOf[g] = p.ModuleOf(g)
	}
	r.Violations = append(r.Violations, compareDBIc(p.E, moduleOf, fresh, p.Costs().DBIc)...)
	return r
}
