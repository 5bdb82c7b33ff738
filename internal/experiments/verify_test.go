package experiments

import (
	"context"
	"strings"
	"testing"

	"iddqsyn/internal/circuits"
	"iddqsyn/internal/core"
	"iddqsyn/internal/partcheck"
	"iddqsyn/internal/partition"
)

// A result that passes core's structural audit but misses its
// discriminability bound must still fail verifyFinal, with the
// constraint named; the same partition under a bound it meets passes.
func TestVerifyFinalNamesDiscriminability(t *testing.T) {
	cons := partition.Constraints{MinDiscriminability: 1e12} // no partition of c17 leaks this little
	res, err := core.SynthesizeContext(context.Background(), circuits.C17(), core.Options{
		Method: core.MethodStandard, Constraints: &cons,
	})
	if err != nil {
		t.Fatal(err)
	}
	err = verifyFinal("c17 standard", res)
	if err == nil || !strings.Contains(err.Error(), partcheck.ConstraintDiscriminability) {
		t.Fatalf("verifyFinal of an infeasible result: err = %v, want one naming %q",
			err, partcheck.ConstraintDiscriminability)
	}
	res.Partition.Cons.MinDiscriminability = partition.DefaultConstraints().MinDiscriminability
	if err := verifyFinal("c17 standard", res); err != nil {
		t.Errorf("verifyFinal of a feasible result: %v", err)
	}
}
