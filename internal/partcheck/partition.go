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
	r := Verify(c, p.Groups(), p.E, lim)
	if !r.OK() {
		return r
	}
	fresh := make([]*estimate.Module, p.NumModules())
	for mi := range fresh {
		got := p.ModuleEstimate(mi)
		fresh[mi] = p.E.EvalModule(got.Gates)
		r.Violations = append(r.Violations, compareEstimate(p.E, mi, got, fresh[mi])...)
	}
	moduleOf := make([]int, c.NumGates())
	for g := range moduleOf {
		moduleOf[g] = p.ModuleOf(g)
	}
	r.Violations = append(r.Violations, compareDBIc(p.E, moduleOf, fresh, p.Costs().DBIc)...)
	return r
}
