package experiments

import (
	"fmt"

	"iddqsyn/internal/core"
	"iddqsyn/internal/partcheck"
)

// verifyFinal checks that a synthesis result meets the discriminability
// constraint the run was configured with before its numbers enter a
// published table. Core's audit has already checked the partition's
// structure and shown its module estimates fresh, so the worst d(M) the
// partition reports is the one a full evaluation would give. The returned
// error names partcheck.ConstraintDiscriminability, so a bad run fails
// loudly instead of quietly skewing a regenerated paper table.
func verifyFinal(what string, res *core.Result) error {
	if p := res.Partition; !p.Feasible() {
		return fmt.Errorf("experiments: %s: %s: worst d(M) = %.3g < required %.3g", what,
			partcheck.ConstraintDiscriminability, p.WorstDiscriminability(), p.Cons.MinDiscriminability)
	}
	return nil
}
