package partcheck

import (
	"strings"
	"testing"

	"iddqsyn/internal/partition"
)

// TestFailurePathNames is the table test over the auditor's failure
// classes: every one must surface its exact Constraint* name in both the
// violation list and the rendered error, because downstream consumers —
// evolution.Resume's checkpoint rejection and iddqpart -verify's exit
// message — grep for these names verbatim.
func TestFailurePathNames(t *testing.T) {
	c, e := c17Estimator(t)
	all := ids(t, c, "g1", "g2", "g3", "g4", "g5", "g6")

	cases := []struct {
		name       string
		constraint string
		report     func(t *testing.T) *Report
	}{
		{
			name:       "gate-cover gap (dropped gate)",
			constraint: ConstraintCover,
			report: func(t *testing.T) *Report {
				return Verify(c, [][]int{all[:len(all)-1]}, e, StructureOnly())
			},
		},
		{
			name:       "gate-cover gap (duplicated gate)",
			constraint: ConstraintCover,
			report: func(t *testing.T) *Report {
				return Verify(c, [][]int{all, all[:1]}, e, StructureOnly())
			},
		},
		{
			name:       "gate-cover gap (unknown gate id)",
			constraint: ConstraintCover,
			report: func(t *testing.T) *Report {
				bad := append(append([]int(nil), all...), 9999)
				return Verify(c, [][]int{bad}, e, StructureOnly())
			},
		},
		{
			name:       "cycle in the netlist",
			constraint: ConstraintAcyclic,
			report: func(t *testing.T) *Report {
				ring := twoGateRing()
				return VerifyStructure(ring, [][]int{{1, 2}})
			},
		},
		{
			name:       "discriminability below target",
			constraint: ConstraintDiscriminability,
			report: func(t *testing.T) *Report {
				d := e.EvalModule(all).Discriminability(e.P.IDDQth)
				return Verify(c, [][]int{all}, e, Feasibility(d*2))
			},
		},
		{
			name:       "rail identity broken (tampered Rs)",
			constraint: ConstraintRailSizing,
			report: func(t *testing.T) *Report {
				m := e.EvalModule(ids(t, c, "g1", "g3", "g5"))
				tampered := *m
				tampered.Rs *= 1.5
				return &Report{Violations: CompareEstimate(e, 0, &tampered)}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := tc.report(t)
			wantConstraint(t, r, tc.constraint)
			err := r.Err()
			if err == nil {
				t.Fatalf("Err() = nil, want an error naming %s", tc.constraint)
			}
			if !strings.Contains(err.Error(), tc.constraint) {
				t.Errorf("Err() = %q, want the exact constraint name %q", err, tc.constraint)
			}
			if !strings.Contains(r.String(), tc.constraint) {
				t.Errorf("String() = %q, want the exact constraint name %q", r, tc.constraint)
			}
		})
	}
}

// TestVerifyPartitionSurfacesDiscriminability walks the exact chain
// iddqpart -verify uses: the optimizer's live Partition goes through
// VerifyPartition with Feasibility(d), and the command's exit error is
// Report.Err() — so the constraint name must survive end to end.
func TestVerifyPartitionSurfacesDiscriminability(t *testing.T) {
	c, e := c17Estimator(t)
	p, err := partition.New(e, [][]int{
		ids(t, c, "g1", "g3", "g5"),
		ids(t, c, "g2", "g4", "g6"),
	}, partition.PaperWeights(), partition.DefaultConstraints())
	if err != nil {
		t.Fatal(err)
	}
	r := VerifyPartition(p, Feasibility(p.WorstDiscriminability()*4))
	wantConstraint(t, r, ConstraintDiscriminability)
	if err := r.Err(); err == nil || !strings.Contains(err.Error(), ConstraintDiscriminability) {
		t.Errorf("iddqpart -verify would report %v, want it to name %q", err, ConstraintDiscriminability)
	}
}
