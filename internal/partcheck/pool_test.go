package partcheck

import (
	"reflect"
	"runtime"
	"testing"

	"iddqsyn/internal/celllib"
	"iddqsyn/internal/circuits"
	"iddqsyn/internal/estimate"
	"iddqsyn/internal/partition"
	"iddqsyn/internal/standard"
)

// TestReportIdenticalForAnyWorkerCount audits a c432 partition of ~20
// modules under limits that every module breaks twice (settling time and
// peak current), so the modules' violations come from different workers,
// and checks that VerifyPartition and Verify give the same Report under
// GOMAXPROCS 1, 2, 3 and 8, listed in module order.
func TestReportIdenticalForAnyWorkerCount(t *testing.T) {
	a, err := celllib.Annotate(circuits.MustISCAS85Like("c432"), celllib.Default())
	if err != nil {
		t.Fatal(err)
	}
	e := estimate.New(a, estimate.DefaultParams())
	groups := standard.StandardPartition(e, 8)
	p, err := partition.New(e, groups, partition.PaperWeights(), partition.DefaultConstraints())
	if err != nil {
		t.Fatal(err)
	}
	lim := Limits{MaxSettle: 1e-30, MaxPeakCurrent: 1e-30}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var want, wantGroups *Report
	for _, procs := range []int{1, 2, 3, 8} {
		runtime.GOMAXPROCS(procs)
		r, rg := VerifyPartition(p, lim), Verify(a.Circuit, groups, e, lim)
		if procs == 1 {
			want, wantGroups = r, rg
			if got := len(r.Violations); got != 2*p.NumModules() || p.NumModules() < 2 {
				t.Fatalf("%d violations over %d modules, want two per module and at least two modules", got, p.NumModules())
			}
			for i, v := range r.Violations {
				if v.Module != i/2 {
					t.Fatalf("violation %d names module %d, want %d: not in module order", i, v.Module, i/2)
				}
			}
			continue
		}
		if !reflect.DeepEqual(r, want) {
			t.Errorf("GOMAXPROCS %d: VerifyPartition report differs from one worker's:\n%s\nwant\n%s", procs, r, want)
		}
		if !reflect.DeepEqual(rg, wantGroups) {
			t.Errorf("GOMAXPROCS %d: Verify report differs from one worker's:\n%s\nwant\n%s", procs, rg, wantGroups)
		}
	}
	if !reflect.DeepEqual(want, wantGroups) {
		t.Errorf("VerifyPartition and Verify disagree:\n%s\nwant\n%s", want, wantGroups)
	}
}
