package analysis_test

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/token"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"iddqsyn/internal/lint/analysis"
)

func load(t *testing.T, patterns ...string) *analysis.Program {
	t.Helper()
	prog, err := analysis.Load(analysis.Config{Root: "testdata", Patterns: patterns})
	if err != nil {
		t.Fatalf("load %v: %v", patterns, err)
	}
	return prog
}

func TestLoadTopoOrder(t *testing.T) {
	prog := load(t, "chain/top")
	var order []string
	for _, pkg := range prog.Packages {
		order = append(order, pkg.Path)
	}
	idx := map[string]int{}
	for i, p := range order {
		idx[p] = i
	}
	for _, p := range []string{"chain/base", "chain/mid", "chain/top"} {
		if _, ok := idx[p]; !ok {
			t.Fatalf("dependency closure missing %s: %v", p, order)
		}
	}
	if !(idx["chain/base"] < idx["chain/mid"] && idx["chain/mid"] < idx["chain/top"]) {
		t.Fatalf("not topologically sorted: %v", order)
	}
	if len(prog.Roots) != 1 || prog.Roots[0].Path != "chain/top" {
		t.Fatalf("roots = %v, want [chain/top]", prog.Roots)
	}
}

func TestLoadCycle(t *testing.T) {
	_, err := analysis.Load(analysis.Config{Root: "testdata", Patterns: []string{"cyc/a"}})
	if err == nil || !strings.Contains(err.Error(), "import cycle") {
		t.Fatalf("want import-cycle error, got %v", err)
	}
}

// chainFact accumulates the dependency chain a package's analysis saw:
// its presence in an importer proves facts flowed dependencies-first.
type chainFact struct{ Chain string }

func (*chainFact) AFact() {}

// chainAnalyzer exports a chainFact describing the package plus every
// dependency fact it could import, records the order packages were
// analyzed in, and reports the chain as a diagnostic.
func chainAnalyzer(mu *sync.Mutex, order *[]string) *analysis.Analyzer {
	return &analysis.Analyzer{
		Name:      "chainfact",
		Doc:       "test analyzer proving dependency-order fact flow",
		FactTypes: []analysis.Fact{(*chainFact)(nil)},
		Run: func(pass *analysis.Pass) (interface{}, error) {
			mu.Lock()
			*order = append(*order, pass.Pkg.Path)
			mu.Unlock()
			var parts []string
			for _, dep := range pass.Pkg.Imports {
				f := new(chainFact)
				if pass.ImportPackageFact(dep.Types, f) {
					parts = append(parts, f.Chain)
				}
			}
			sort.Strings(parts)
			chain := pass.Pkg.Name
			if len(parts) > 0 {
				chain += "<-(" + strings.Join(parts, ",") + ")"
			}
			pass.ExportPackageFact(&chainFact{Chain: chain})
			pass.Reportf(pass.Files[0].Pos(), "chain: %s", chain)
			return nil, nil
		},
	}
}

// TestFactFlowParallel runs the chain analyzer with several workers: the
// scheduler must still analyze base before mid before top (facts flow in
// dependency order even under parallelism), and the fact imported at the
// top must contain the full transitive chain.
func TestFactFlowParallel(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	prog := load(t, "chain/top")
	var mu sync.Mutex
	var order []string
	a := chainAnalyzer(&mu, &order)
	findings, err := prog.Run([]*analysis.Analyzer{a}, analysis.Options{RootsOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	idx := map[string]int{}
	for i, p := range order {
		idx[p] = i
	}
	if !(idx["chain/base"] < idx["chain/mid"] && idx["chain/mid"] < idx["chain/top"]) {
		t.Fatalf("analysis order violated dependency order: %v", order)
	}
	// RootsOnly drops the diagnostics of the dependency packages.
	if len(findings) != 1 {
		t.Fatalf("findings = %v, want exactly the root's", findings)
	}
	if want := "chain: top<-(mid<-(base))"; findings[0].Message != want {
		t.Fatalf("fact chain = %q, want %q", findings[0].Message, want)
	}
}

func TestRunTypeErrorIsFailure(t *testing.T) {
	prog := load(t, "badtypes")
	var mu sync.Mutex
	var order []string
	_, err := prog.Run([]*analysis.Analyzer{chainAnalyzer(&mu, &order)}, analysis.Options{})
	if err == nil || !strings.Contains(err.Error(), "undefinedIdent") {
		t.Fatalf("want type-check failure mentioning undefinedIdent, got %v", err)
	}
}

// flagme reports every function whose name starts with "Bad".
var flagme = &analysis.Analyzer{
	Name: "flagme",
	Doc:  "test analyzer flagging Bad* functions",
	Run: func(pass *analysis.Pass) (interface{}, error) {
		for _, f := range pass.Files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && strings.HasPrefix(fd.Name.Name, "Bad") {
					pass.Reportf(fd.Name.Pos(), "function %s is flagged", fd.Name.Name)
				}
			}
		}
		return nil, nil
	},
}

// TestDirectives pins the full directive hygiene contract: exact-name
// suppression on the same line or the line above; unused, unknown-name
// and malformed directives reported under "lintdirective"; directives
// naming a known-but-not-running analyzer left alone.
func TestDirectives(t *testing.T) {
	prog := load(t, "dirpkg")
	findings, err := prog.Run([]*analysis.Analyzer{flagme}, analysis.Options{
		KnownAnalyzers: []string{"flagme", "other"},
	})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range findings {
		got = append(got, f.Analyzer+": "+f.Message)
	}
	want := []struct{ analyzer, substr string }{
		{"flagme", "BadLive"},
		{"flagme", "BadMalformed"},
		{"lintdirective", "malformed ignore directive"},
		{"lintdirective", `unknown analyzer "nosuch"`},
		{"lintdirective", "unused ignore directive: flagme"},
	}
	if len(findings) != len(want) {
		t.Fatalf("findings:\n%s\nwant %d entries", strings.Join(got, "\n"), len(want))
	}
	for _, w := range want {
		found := false
		for _, f := range findings {
			if f.Analyzer == w.analyzer && strings.Contains(f.Message, w.substr) {
				found = true
			}
		}
		if !found {
			t.Errorf("missing %s finding containing %q in:\n%s", w.analyzer, w.substr, strings.Join(got, "\n"))
		}
	}
	// The suppressed functions must not appear.
	for _, f := range findings {
		if strings.Contains(f.Message, "BadSuppressed") || strings.Contains(f.Message, "BadSameLine") {
			t.Errorf("suppressed finding leaked: %s", f)
		}
	}
}

func sampleFindings() []analysis.Finding {
	return []analysis.Finding{
		{Position: token.Position{Filename: "/mod/a/a.go", Line: 3, Column: 2},
			Analyzer: "flagme", Message: "function BadLive is flagged"},
		{Position: token.Position{Filename: "/mod/b/b.go", Line: 10, Column: 1},
			Analyzer: "chainfact", Message: "chain: top"},
	}
}

// TestWriteSARIF checks the emitted log is structurally valid SARIF
// 2.1.0: schema, version, per-analyzer rules, and results whose ruleIndex
// points back at the right rule.
func TestWriteSARIF(t *testing.T) {
	var buf bytes.Buffer
	analyzers := []*analysis.Analyzer{flagme}
	if err := analysis.WriteSARIF(&buf, sampleFindings(), analyzers, "test", "/mod"); err != nil {
		t.Fatal(err)
	}
	var log struct {
		Schema  string `json:"$schema"`
		Version string
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string
					Rules []struct {
						ID               string
						ShortDescription struct{ Text string }
					}
				}
			}
			Results []struct {
				RuleID    string
				RuleIndex int
				Level     string
				Message   struct{ Text string }
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct{ URI string }
						Region           struct{ StartLine, StartColumn int }
					}
				}
			}
		}
	}
	if err := json.Unmarshal(buf.Bytes(), &log); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if log.Version != "2.1.0" || !strings.Contains(log.Schema, "sarif-schema-2.1.0") {
		t.Fatalf("version %q schema %q", log.Version, log.Schema)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("runs = %d", len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "iddqlint" {
		t.Fatalf("driver name %q", run.Tool.Driver.Name)
	}
	if len(run.Results) != 2 {
		t.Fatalf("results = %d", len(run.Results))
	}
	for _, r := range run.Results {
		if r.RuleIndex < 0 || r.RuleIndex >= len(run.Tool.Driver.Rules) {
			t.Fatalf("ruleIndex %d out of range", r.RuleIndex)
		}
		if run.Tool.Driver.Rules[r.RuleIndex].ID != r.RuleID {
			t.Fatalf("ruleIndex %d points at %q, want %q",
				r.RuleIndex, run.Tool.Driver.Rules[r.RuleIndex].ID, r.RuleID)
		}
	}
	if uri := run.Results[0].Locations[0].PhysicalLocation.ArtifactLocation.URI; uri != "a/a.go" {
		t.Fatalf("uri = %q, want root-relative a/a.go", uri)
	}
	if run.Results[0].Locations[0].PhysicalLocation.Region.StartLine != 3 {
		t.Fatal("startLine lost")
	}
}
