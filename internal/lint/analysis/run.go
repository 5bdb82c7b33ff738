package analysis

import (
	"fmt"
	"go/token"
	"io"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// IgnoreDirective is the comment prefix that suppresses a finding:
//
//	//lint:ignore <analyzer> <reason>
//
// placed on the flagged line or on the line directly above it. The
// analyzer name must match the reporting analyzer exactly, and the reason
// is mandatory. A directive that suppresses nothing is itself reported
// (as analyzer "lintdirective"), so stale exemptions cannot linger after
// the code they excused is gone.
const IgnoreDirective = "lint:ignore"

// DirectiveAnalyzer is the pseudo-analyzer name under which the framework
// reports malformed, unknown-analyzer and unused ignore directives. It is
// not suppressible.
const DirectiveAnalyzer = "lintdirective"

// Options configures one Program.Run.
type Options struct {
	// Applies, when non-nil, gates which analyzers run on which package
	// (by import path). An analyzer that does not apply is skipped for
	// that package, and ignore directives naming it there are left alone.
	Applies func(a *Analyzer, pkgPath string) bool
	// KnownAnalyzers is the full suite's names, used to distinguish an
	// ignore directive naming an unknown analyzer (reported) from one
	// naming a real analyzer that simply is not running (left alone).
	// When empty, the names of the analyzers being run are used.
	KnownAnalyzers []string
	// RootsOnly restricts findings to the packages matched by the load
	// patterns; dependency packages are still type-checked and analyzed
	// so their facts flow, but their diagnostics are dropped.
	RootsOnly bool
	// FactDebug, when non-nil, receives the final fact of every (object
	// or package, fact type) pair after the run completes, one sorted
	// line each.
	FactDebug io.Writer
	// OnResult, when non-nil, receives every analyzer Run return value
	// (including nil ones) with the package it was produced for. It is
	// called concurrently from the worker goroutines — one call per
	// (package, analyzer) — so implementations must synchronize their own
	// state.
	OnResult func(pkg *Package, a *Analyzer, result interface{})
	// OnTiming, when non-nil, receives the wall-clock cost of every
	// analyzer run — one call per (package, analyzer), concurrently from
	// the worker goroutines like OnResult. The per-package type-check is
	// not included: timing exists to apportion the lint budget across
	// analyzers, and the type-check is a fixed cost they all share.
	OnTiming func(pkg *Package, a *Analyzer, elapsed time.Duration)
}

// pkgState is the per-package bookkeeping that spans both analysis waves:
// the parsed ignore directives (suppressions from either wave mark them
// used) and the set of analyzers that actually ran on the package (so the
// unused-directive report only fires for analyzers that had a chance to
// report).
type pkgState struct {
	directives []*directive
	ran        map[string]bool
}

// Run type-checks every package of the Program and applies the analyzers
// in two waves, each parallel across packages:
//
//   - wave 1 (Forward): dependency order. A package starts as soon as all
//     its in-module imports have finished, so facts exported while
//     analyzing a dependency are always visible to its dependents. The
//     type-check itself happens in this wave.
//   - wave 2 (Reverse): dependent order over the same graph. A package
//     starts as soon as every package importing it has finished, so facts
//     exported while analyzing a caller's package (e.g. "this imported
//     function is reachable from a hot root") are visible when the
//     defining package is analyzed.
//
// Ignore directives are shared across the waves, and directive hygiene
// (malformed/unknown/unused) is judged only after both waves finished.
//
// The returned error reports broken tooling — a type-check failure or a
// panicking/failing analyzer — as distinct from findings, so drivers can
// exit 2 rather than 1 (see cmd/iddqlint).
func (prog *Program) Run(analyzers []*Analyzer, opts Options) ([]Finding, error) {
	known := map[string]bool{}
	for _, n := range opts.KnownAnalyzers {
		known[n] = true
	}
	if len(known) == 0 {
		for _, a := range analyzers {
			known[a.Name] = true
		}
	}
	facts := newFactStore()

	rootSet := map[*Package]bool{}
	for _, pkg := range prog.Roots {
		rootSet[pkg] = true
	}
	states := map[*Package]*pkgState{}
	for _, pkg := range prog.Packages {
		states[pkg] = &pkgState{ran: map[string]bool{}}
	}

	var forward, reverse []*Analyzer
	for _, a := range analyzers {
		if a.Direction == Reverse {
			reverse = append(reverse, a)
		} else {
			forward = append(forward, a)
		}
	}

	var (
		mu       sync.Mutex
		findings []Finding
		failures []error
	)
	runWave := func(wave []*Analyzer, deps func(*Package) []*Package, typeCheck bool) {
		prog.schedule(deps, func(pkg *Package) {
			fs, errs := prog.runPackage(pkg, wave, opts, facts, states[pkg], typeCheck)
			mu.Lock()
			if opts.RootsOnly && !rootSet[pkg] {
				fs = nil
			}
			findings = append(findings, fs...)
			failures = append(failures, errs...)
			mu.Unlock()
		})
	}

	dependents := map[*Package][]*Package{}
	for _, pkg := range prog.Packages {
		for _, dep := range pkg.Imports {
			dependents[dep] = append(dependents[dep], pkg)
		}
	}
	runWave(forward, func(pkg *Package) []*Package { return pkg.Imports }, true)
	if len(reverse) > 0 && len(failures) == 0 {
		runWave(reverse, func(pkg *Package) []*Package { return dependents[pkg] }, false)
	}

	for _, pkg := range prog.Packages {
		if opts.RootsOnly && !rootSet[pkg] {
			continue
		}
		st := states[pkg]
		findings = append(findings, directiveFindings(st.directives, known, st.ran)...)
	}

	if opts.FactDebug != nil {
		for _, line := range facts.dump(analyzers, prog) {
			fmt.Fprintln(opts.FactDebug, line)
		}
	}
	if len(failures) > 0 {
		msgs := make([]string, len(failures))
		for i, e := range failures {
			msgs[i] = e.Error()
		}
		sort.Strings(msgs)
		return nil, fmt.Errorf("%s", strings.Join(msgs, "\n"))
	}
	sortFindings(findings)
	return findings, nil
}

// schedule runs work once per package on GOMAXPROCS workers, respecting
// deps: a package starts only after work finished on every package deps
// returns for it. With deps = Imports this is dependency order; with
// deps = the dependents map it is the same graph walked backwards.
func (prog *Program) schedule(deps func(*Package) []*Package, work func(*Package)) {
	waiting := map[*Package]int{}
	unlocks := map[*Package][]*Package{}
	ready := make(chan *Package, len(prog.Packages))
	for _, pkg := range prog.Packages {
		d := deps(pkg)
		waiting[pkg] = len(d)
		for _, dep := range d {
			unlocks[dep] = append(unlocks[dep], pkg)
		}
		if len(d) == 0 {
			ready <- pkg
		}
	}
	done := make(chan *Package, len(prog.Packages))

	var wg sync.WaitGroup
	for range runtime.GOMAXPROCS(0) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pkg := range ready {
				work(pkg)
				done <- pkg
			}
		}()
	}
	for finished := 0; finished < len(prog.Packages); finished++ {
		pkg := <-done
		for _, dep := range unlocks[pkg] {
			waiting[dep]--
			if waiting[dep] == 0 {
				ready <- dep
			}
		}
	}
	close(ready)
	wg.Wait()
}

// runPackage applies one wave's analyzers to one package, resolving
// ignore directives against the cross-wave state. In the first wave
// (typeCheck true) the package is type-checked first. Returned errors are
// tooling failures, not findings.
func (prog *Program) runPackage(pkg *Package, analyzers []*Analyzer, opts Options,
	facts *factStore, st *pkgState, typeCheck bool) ([]Finding, []error) {

	if typeCheck {
		// A dependency that failed to type-check poisons this package too;
		// stay quiet about it (the root cause is already reported).
		for _, dep := range pkg.Imports {
			if dep.Types == nil {
				return nil, nil
			}
		}
		if err := prog.typeCheck(pkg); err != nil {
			return nil, []error{err}
		}
		st.directives = collectDirectives(pkg)
	}
	if pkg.Types == nil {
		return nil, nil // poisoned in wave 1
	}

	var findings []Finding
	for _, a := range analyzers {
		if opts.Applies != nil && !opts.Applies(a, pkg.Path) {
			continue
		}
		st.ran[a.Name] = true
		var diags []Diagnostic
		pass := &Pass{
			Analyzer:  a,
			Pkg:       pkg,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			TypesPkg:  pkg.Types,
			TypesInfo: pkg.TypesInfo,
			Report:    func(d Diagnostic) { diags = append(diags, d) },
			facts:     facts,
		}
		start := time.Now()
		res, err := a.Run(pass)
		if opts.OnTiming != nil {
			opts.OnTiming(pkg, a, time.Since(start))
		}
		if err != nil {
			return nil, []error{fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.Path, err)}
		}
		if opts.OnResult != nil {
			opts.OnResult(pkg, a, res)
		}
		for _, d := range diags {
			pos := pkg.Fset.Position(d.Pos)
			if suppressed(st.directives, a.Name, pos) {
				continue
			}
			findings = append(findings, Finding{Position: pos, Analyzer: a.Name, Message: d.Message})
		}
	}
	return findings, nil
}

// ParseIgnore parses one comment's text (with or without the leading //)
// as an ignore directive. It returns ok=false when the comment is not an
// ignore directive at all, and malformed=true when it is one but lacks an
// analyzer name or a reason.
func ParseIgnore(text string) (name, reason string, ok, malformed bool) {
	text = strings.TrimPrefix(text, "//")
	text = strings.TrimSpace(text)
	rest, isDir := strings.CutPrefix(text, IgnoreDirective)
	if !isDir {
		return "", "", false, false
	}
	fields := strings.Fields(rest)
	if len(fields) < 2 {
		return "", "", true, true
	}
	return fields[0], strings.Join(fields[1:], " "), true, false
}

// directive is one parsed //lint:ignore comment.
type directive struct {
	pos     token.Position
	name    string // analyzer named by the directive ("" if malformed)
	reason  string
	inTest  bool
	used    bool
	malform bool
}

// collectDirectives parses every lint:ignore comment in the package.
func collectDirectives(pkg *Package) []*directive {
	var out []*directive
	for _, f := range pkg.Files {
		fileName := pkg.Fset.Position(f.Pos()).Filename
		inTest := strings.HasSuffix(fileName, "_test.go")
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				name, reason, ok, malformed := ParseIgnore(c.Text)
				if !ok {
					continue
				}
				out = append(out, &directive{
					pos: pkg.Fset.Position(c.Pos()), inTest: inTest,
					name: name, reason: reason, malform: malformed,
				})
			}
		}
	}
	return out
}

// suppressed reports whether a diagnostic of the named analyzer at pos is
// covered by a directive (exact analyzer-name match, on the same line or
// the line above), marking every covering directive used.
func suppressed(directives []*directive, analyzer string, pos token.Position) bool {
	hit := false
	for _, d := range directives {
		if d.malform || d.name != analyzer || d.pos.Filename != pos.Filename {
			continue
		}
		if d.pos.Line == pos.Line || d.pos.Line == pos.Line-1 {
			d.used = true
			hit = true
		}
	}
	return hit
}

// directiveFindings reports directive hygiene violations: malformed
// directives, directives naming an analyzer that does not exist, and
// directives that suppressed nothing even though their analyzer ran.
// Directives naming a real analyzer that was not run here (disabled, or
// scoped away by Applies) are left alone. Test files never produce
// analyzer findings, so unused directives there are skipped too.
func directiveFindings(directives []*directive, known, ran map[string]bool) []Finding {
	var out []Finding
	for _, d := range directives {
		switch {
		case d.malform:
			out = append(out, Finding{Position: d.pos, Analyzer: DirectiveAnalyzer,
				Message: "malformed ignore directive: want //lint:ignore <analyzer> <reason>"})
		case !known[d.name]:
			out = append(out, Finding{Position: d.pos, Analyzer: DirectiveAnalyzer,
				Message: fmt.Sprintf("ignore directive names unknown analyzer %q (see iddqlint -list); the exact name is required", d.name)})
		case !d.used && ran[d.name] && !d.inTest:
			out = append(out, Finding{Position: d.pos, Analyzer: DirectiveAnalyzer,
				Message: fmt.Sprintf("unused ignore directive: %s reports nothing here; remove the directive", d.name)})
		}
	}
	return out
}

// sortFindings orders findings by file position, then analyzer.
func sortFindings(findings []Finding) {
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i].Position, findings[j].Position
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return findings[i].Analyzer < findings[j].Analyzer
	})
}
