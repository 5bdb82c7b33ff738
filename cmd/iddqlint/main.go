// Command iddqlint is the multichecker driver for the iddqsyn analyzer
// suite (internal/lint): project-specific static checks that enforce the
// determinism, panic, cancellation, locking and error-wrapping policies
// the optimizer's bit-identical checkpoint resume depends on.
//
// Usage:
//
//	iddqlint [flags] [packages...]
//
// Packages are directory patterns relative to the module root: "./..."
// (the default), "./internal/...", or plain directories like
// "./internal/atpg". The whole module slice is loaded and type-checked
// once; analyzers run in dependency order, in parallel across packages,
// so cross-package facts (e.g. determtaint's "this function derives from
// time.Now") are always complete when a dependent package is checked.
//
// Flags:
//
//	-list             list analyzers and exit
//	-enable names     comma-separated analyzers to run (default: all)
//	-disable names    comma-separated analyzers to skip
//	-root dir         module root (default: current directory)
//	-json             emit findings as JSON instead of text
//	-sarif file       write a SARIF 2.1.0 log to file ("-" for stdout)
//	-fact-debug       dump the final fact of every (object, fact type)
//	                  pair to stderr after the run, one sorted line each
//	-escapecheck      diff hotalloc against the compiler's escape
//	                  analysis (go build -gcflags=-m=1); exit 1 on an
//	                  analyzer false negative
//	-racecheck        run the race-soak cross-check: the seeded race
//	                  corpus plus chaos/serve/torture-lite workloads
//	                  under `go test -race`, re-attributing every GORACE
//	                  report to a sharedstate candidate; exit 1 on an
//	                  unobserved seed or an unexplained dynamic race
//	-racecheck-log d  write each scope's raw -race output to d/gorace-<scope>.log
//	-racecheck-scopes comma-separated scope names to run (default: all)
//	-timing           print a per-analyzer wall-clock breakdown after
//	                  the run, to keep the lint CI budget honest; a
//	                  package's shared call graph is charged to the
//	                  first analyzer that reads it (lockorder)
//
// The exit status is 0 when the tree is clean, 1 when findings were
// reported, and 2 on usage, load, type-check or analyzer failure — the
// same convention as go vet, so `make lint` and CI can distinguish
// "dirty tree" from "broken tooling".
//
// The one way to suppress a finding is a reasoned directive on or
// directly above the flagged line:
//
//	//lint:ignore <analyzer> <reason>
//
// The analyzer name must match exactly; unused, malformed or
// unknown-name directives are themselves findings (analyzer
// "lintdirective").
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"iddqsyn/internal/lint"
	"iddqsyn/internal/lint/analysis"
)

// toolVersion is reported in SARIF logs.
const toolVersion = "5.0.0"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("iddqlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list the available analyzers and exit")
	enable := fs.String("enable", "", "comma-separated analyzers to run (default: all)")
	disable := fs.String("disable", "", "comma-separated analyzers to skip")
	root := fs.String("root", "", "module root (default: current directory)")
	jsonOut := fs.Bool("json", false, "emit findings as JSON")
	sarifPath := fs.String("sarif", "", "write a SARIF 2.1.0 log to this file (\"-\" for stdout)")
	factDebug := fs.Bool("fact-debug", false, "dump the final facts to stderr after the run")
	escapeCheck := fs.Bool("escapecheck", false, "cross-check hotalloc against the compiler's escape analysis (-gcflags=-m=1)")
	raceCheck := fs.Bool("racecheck", false, "cross-check sharedstate against the race detector (seeded corpus + race soaks)")
	raceLog := fs.String("racecheck-log", "", "directory for raw GORACE output artifacts (gorace-<scope>.log)")
	raceScopes := fs.String("racecheck-scopes", "", "comma-separated racecheck scope names to run (default: all)")
	timing := fs.Bool("timing", false, "print a per-analyzer wall-clock breakdown after the run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		fmt.Fprintf(stdout, "%-14s %s\n", analysis.DirectiveAnalyzer,
			"(framework) malformed, unknown-name and unused //lint:ignore directives")
		return 0
	}

	analyzers, err := selectAnalyzers(*enable, *disable)
	if err != nil {
		fmt.Fprintln(stderr, "iddqlint:", err)
		return 2
	}
	dir := *root
	if dir == "" {
		if dir, err = os.Getwd(); err != nil {
			fmt.Fprintln(stderr, "iddqlint:", err)
			return 2
		}
	}
	if dir, err = filepath.Abs(dir); err != nil {
		fmt.Fprintln(stderr, "iddqlint:", err)
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	if *escapeCheck {
		return runEscapeCheck(dir, patterns, stdout, stderr)
	}
	if *raceCheck {
		return runRaceCheck(dir, *raceScopes, *raceLog, stdout, stderr)
	}

	prog, err := analysis.LoadModule(dir, patterns)
	if err != nil {
		fmt.Fprintln(stderr, "iddqlint:", err)
		return 2
	}
	if len(prog.Roots) == 0 {
		fmt.Fprintln(stderr, "iddqlint: no packages matched", strings.Join(patterns, " "))
		return 2
	}
	opts := analysis.Options{
		Applies:        lint.Applies,
		KnownAnalyzers: lint.Names(),
		RootsOnly:      true,
	}
	if *factDebug {
		opts.FactDebug = stderr
	}
	var timings *timingTable
	if *timing {
		timings = newTimingTable()
		opts.OnTiming = timings.add
	}
	findings, err := prog.Run(analyzers, opts)
	if err != nil {
		fmt.Fprintln(stderr, "iddqlint:", err)
		return 2
	}
	if timings != nil {
		timings.write(stderr)
	}

	if *sarifPath != "" {
		w := stdout
		var closer io.Closer
		if *sarifPath != "-" {
			f, err := os.Create(*sarifPath)
			if err != nil {
				fmt.Fprintln(stderr, "iddqlint:", err)
				return 2
			}
			w, closer = f, f
		}
		err := analysis.WriteSARIF(w, findings, analyzers, toolVersion, dir)
		if closer != nil {
			if cerr := closer.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(stderr, "iddqlint:", err)
			return 2
		}
	}
	// Text or JSON findings go to stdout unless SARIF already claimed it.
	if *sarifPath != "-" {
		if *jsonOut {
			if err := writeJSON(stdout, findings, dir); err != nil {
				fmt.Fprintln(stderr, "iddqlint:", err)
				return 2
			}
		} else {
			for _, f := range findings {
				fmt.Fprintln(stdout, f)
			}
		}
	}
	if len(findings) > 0 {
		return 1
	}
	return 0
}

// runEscapeCheck diffs the hotalloc allocation model against the
// compiler's escape analysis. Exit 0 when every compiler heap diagnostic
// inside a hot function body is covered by an analyzer site, 1 when the
// analyzer missed one (a false negative), 2 on tooling failure.
func runEscapeCheck(dir string, patterns []string, stdout, stderr io.Writer) int {
	rep, err := lint.EscapeCheck(dir, patterns)
	if err != nil {
		fmt.Fprintln(stderr, "iddqlint:", err)
		return 2
	}
	fmt.Fprintf(stdout, "iddqlint -escapecheck: %d hot func(s), %d analyzer site(s), %d compiler heap diag(s) in hot bodies, %d matched\n",
		rep.HotFuncs, rep.AnalyzerSites, rep.CompilerDiags, rep.Matched)
	if len(rep.FalseNegatives) == 0 {
		return 0
	}
	fmt.Fprintf(stdout, "iddqlint -escapecheck: %d false negative(s) — heap allocations the analyzer did not model:\n", len(rep.FalseNegatives))
	for _, d := range rep.FalseNegatives {
		fmt.Fprintln(stdout, "  "+d.String())
	}
	return 1
}

// runRaceCheck drives the static-vs-dynamic race cross-check. Exit 0
// when every scope meets its contract (seeds all observed and
// attributed, zero unexplained soak races), 1 on a violated contract,
// 2 on tooling failure.
func runRaceCheck(dir, scopeNames, logDir string, stdout, stderr io.Writer) int {
	scopes := lint.DefaultRaceScopes()
	if scopeNames != "" {
		byName := map[string]lint.RaceScope{}
		for _, sc := range scopes {
			byName[sc.Name] = sc
		}
		var picked []lint.RaceScope
		for _, name := range strings.Split(scopeNames, ",") {
			sc, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(stderr, "iddqlint: unknown racecheck scope %q\n", name)
				return 2
			}
			picked = append(picked, sc)
		}
		scopes = picked
	}
	rep, err := lint.RaceCheck(dir, scopes, logDir)
	if err != nil {
		fmt.Fprintln(stderr, "iddqlint:", err)
		return 2
	}
	fmt.Fprintf(stdout, "iddqlint -racecheck: %d static candidate field(s) module-wide, %d in the seeded corpus\n",
		rep.StaticFields, rep.SeedFields)
	for _, id := range rep.SeedsMissingStatic {
		fmt.Fprintf(stdout, "  STATIC MISS: seed %s not flagged by sharedstate\n", id)
	}
	failed := len(rep.SeedsMissingStatic) > 0
	for i := range rep.Scopes {
		sc := &rep.Scopes[i]
		fmt.Fprintf(stdout, "  scope %-12s %d race report(s), %d attributed, %d unexplained\n",
			sc.Name+":", sc.Reports, len(sc.Attributed), len(sc.Unexplained))
		if sc.Err != "" {
			fmt.Fprintf(stdout, "    BROKEN: %s\n", strings.ReplaceAll(sc.Err, "\n", "\n    "))
			failed = true
		}
		for _, a := range sc.Attributed {
			fmt.Fprintf(stdout, "    attributed: %s [%s] at %s\n", a.Field, strings.Join(a.Kinds, ","), a.Frame)
		}
		for _, a := range sc.Unexplained {
			fmt.Fprintf(stdout, "    UNEXPLAINED: %s at %s — no sharedstate candidate covers this race\n",
				a.Summary, a.Frame)
			failed = true
		}
		for _, id := range sc.MissingSeeds {
			fmt.Fprintf(stdout, "    UNOBSERVED SEED: %s never raced under the detector\n", id)
			failed = true
		}
	}
	if failed || !rep.Passed() {
		return 1
	}
	fmt.Fprintln(stdout, "iddqlint -racecheck: every dynamic race attributes to a static finding; all seeds observed")
	return 0
}

// timingTable accumulates per-analyzer wall-clock totals across the
// concurrent per-package runs.
type timingTable struct {
	mu    sync.Mutex
	total map[string]time.Duration
	pkgs  map[string]int
}

func newTimingTable() *timingTable {
	return &timingTable{total: map[string]time.Duration{}, pkgs: map[string]int{}}
}

func (t *timingTable) add(pkg *analysis.Package, a *analysis.Analyzer, elapsed time.Duration) {
	t.mu.Lock()
	t.total[a.Name] += elapsed
	t.pkgs[a.Name]++
	t.mu.Unlock()
}

func (t *timingTable) write(w io.Writer) {
	t.mu.Lock()
	defer t.mu.Unlock()
	names := make([]string, 0, len(t.total))
	var sum time.Duration
	for name, d := range t.total {
		names = append(names, name)
		sum += d
	}
	sort.Slice(names, func(i, j int) bool { return t.total[names[i]] > t.total[names[j]] })
	fmt.Fprintf(w, "iddqlint -timing: analyzer CPU (sum across %s of parallel per-package runs)\n", sum.Round(time.Millisecond))
	for _, name := range names {
		fmt.Fprintf(w, "  %-14s %8s  over %d package(s)\n",
			name, t.total[name].Round(time.Millisecond), t.pkgs[name])
	}
}

// jsonFinding is the -json output shape, one object per finding.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func writeJSON(w io.Writer, findings []analysis.Finding, root string) error {
	out := make([]jsonFinding, 0, len(findings))
	for _, f := range findings {
		file := f.Position.Filename
		if rel, err := filepath.Rel(root, file); err == nil && !strings.HasPrefix(rel, "..") {
			file = filepath.ToSlash(rel)
		}
		out = append(out, jsonFinding{
			File: file, Line: f.Position.Line, Column: f.Position.Column,
			Analyzer: f.Analyzer, Message: f.Message,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

func selectAnalyzers(enable, disable string) ([]*analysis.Analyzer, error) {
	analyzers := lint.Analyzers()
	if enable != "" {
		var out []*analysis.Analyzer
		for _, name := range strings.Split(enable, ",") {
			a, ok := lint.ByName(strings.TrimSpace(name))
			if !ok {
				return nil, fmt.Errorf("unknown analyzer %q (see -list)", name)
			}
			out = append(out, a)
		}
		analyzers = out
	}
	if disable != "" {
		skip := map[string]bool{}
		for _, name := range strings.Split(disable, ",") {
			name = strings.TrimSpace(name)
			if _, ok := lint.ByName(name); !ok {
				return nil, fmt.Errorf("unknown analyzer %q (see -list)", name)
			}
			skip[name] = true
		}
		var out []*analysis.Analyzer
		for _, a := range analyzers {
			if !skip[a.Name] {
				out = append(out, a)
			}
		}
		analyzers = out
	}
	if len(analyzers) == 0 {
		return nil, fmt.Errorf("no analyzers selected")
	}
	return analyzers, nil
}
