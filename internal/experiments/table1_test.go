package experiments

import (
	"context"
	"testing"

	"iddqsyn/internal/obs"
)

// A Table 1 row annotates its circuit and builds its estimator once: the
// standard run reuses the evolution run's estimator, so the row's two
// syntheses record one core.annotate and one core.estimator span between
// them.
func TestTable1RowBuildsOneEstimator(t *testing.T) {
	o := obs.New("table1-row", nil, nil)
	o.SetTracer(obs.NewTracer(obs.TracerConfig{}))
	prm := fastEvolution()
	prm.MaxGenerations = 2
	if _, err := table1Circuit(obs.NewContext(context.Background(), o), "c1908", prm); err != nil {
		t.Fatal(err)
	}
	spans := map[string]int{}
	for _, tr := range o.Tracer().Snapshot().Slowest {
		for _, sp := range tr.Spans {
			spans[sp.Name]++
		}
	}
	for name, want := range map[string]int{
		"core.synthesize": 2, "core.annotate": 1, "core.estimator": 1, "core.audit": 2,
	} {
		if spans[name] != want {
			t.Errorf("%s spans = %d, want %d", name, spans[name], want)
		}
	}
}
