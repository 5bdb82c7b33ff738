package lint

import (
	"testing"

	"iddqsyn/internal/lint/analysis"
)

// TestCallGraphInterfaceDispatch pins how the graph resolves interface
// calls in the sharedstate golden's dispatch cases: Pump's call through
// the package's own sink interface becomes a call edge to
// (*tally).bump in the spawned literal's scope, while Emit's call
// through io.Writer only names the interface method — its
// implementations, *bytes.Buffer among them, are outside the module.
func TestCallGraphInterfaceDispatch(t *testing.T) {
	prog, err := analysis.Load(analysis.Config{Root: "testdata", Patterns: []string{"sharedstate"}})
	if err != nil {
		t.Fatal(err)
	}
	var g *callGraph
	probe := &analysis.Analyzer{Name: "probe", Run: func(pass *analysis.Pass) (interface{}, error) {
		g = callGraphOf(pass)
		return nil, nil
	}}
	if _, err := prog.Run([]*analysis.Analyzer{probe}, analysis.Options{}); err != nil {
		t.Fatal(err)
	}
	edges := func(fn string) []callEdge {
		for _, n := range g.funcs {
			if n.obj.Name() == fn {
				return n.edges
			}
		}
		t.Fatalf("no function %s in the graph", fn)
		return nil
	}

	var bump bool
	for _, e := range edges("Pump") {
		if e.kind == edgeCall && e.callee.FullName() == "(*sharedstate.tally).bump" && e.spawn != nil {
			bump = true
		}
	}
	if !bump {
		t.Errorf("Pump: want a call edge to (*sharedstate.tally).bump inside the go literal, got %v", edges("Pump"))
	}

	var write bool
	for _, e := range edges("Emit") {
		switch {
		case e.kind == edgeCall:
			t.Errorf("Emit: unexpected call edge to %s", e.callee.FullName())
		case e.callee.FullName() == "(io.Writer).Write":
			write = true
		}
	}
	if !write {
		t.Errorf("Emit: want (io.Writer).Write named as a reference, got %v", edges("Emit"))
	}
}
