// Package lint is the iddqlint analyzer suite: the project-specific
// static checks that guard the invariants the rest of the system rests on.
//
//   - panicpolicy: library code under internal/ returns errors; panics are
//     reserved for must()-style invariant helpers and init-time
//     registration.
//   - ctxloop: generation/sweep loops in context-aware functions must
//     observe cancellation, or -timeout and SIGINT handling silently stop
//     working.
//   - closecheck: Close/Sync errors on writers and Shutdown errors on
//     servers must be checked — the atomic-checkpoint guarantee and the
//     debug server's graceful drain depend on them.
//   - renameatomic: files are published with the shared fsx atomic-write
//     helper (temp file + fsync + rename + directory fsync), never with a
//     bare os.Rename that silently skips the fsyncs.
//   - determtaint: the determinism contract, through one source
//     classifier. Types-aware taint analysis: nondeterministic values
//     (wall clock, process identity, global rand, map iteration order,
//     select races) must not flow into the seeded optimizer path or into
//     checkpoint bytes, and taint facts cross package boundaries. In all
//     non-test code, randomness must flow through an injected, seeded
//     *rand.Rand (the counted stream): no reference to the
//     process-global math/rand stream, no dot import of math/rand, no
//     source seeded from a tainted value — or checkpoint resume stops
//     being bit-identical.
//   - errwrapcheck: errors passed to fmt.Errorf use %w, never %v/%s/%q,
//     so sentinel errors survive wrapping for errors.Is/As.
//   - hotalloc: call-graph hot-path allocation analysis; functions
//     reachable from //lint:hotpath roots must not allocate (composite
//     literals, make/new, unamortized append, interface boxing, closures,
//     string concatenation) unless each site carries a reasoned ignore.
//     Hot facts propagate caller→callee, against the import direction.
//   - lockorder: lock-acquisition-order cycles (A held while acquiring B,
//     elsewhere B held while acquiring A) — static deadlock risks,
//     expanded through per-function acquisition summaries across packages.
//     It reads the held sets of the call graph's flow-sensitive body scan.
//   - goleak: `go` statements with no visible stop path (no context,
//     channel operation, or WaitGroup) — goroutines that cannot be shut
//     down or awaited.
//   - spanend: trace spans (obs.TraceSpan from Start* producers) that are
//     started but provably never ended — dropped, bound to blank, or
//     assigned and forgotten. An unended span is a silent hole in the
//     causal trace and leaks against the per-trace span cap.
//   - sharedstate: whole-program lockset analysis; struct fields reachable
//     from more than one goroutine (via the shared goroutine inventory and
//     cross-package spawn facts) must be accessed under a *consistent*
//     discipline — flagged when accessed both under and outside a guard,
//     under disjoint locks on different paths, or mixing sync/atomic with
//     plain loads/stores. Fields and package variables annotated
//     `// guarded by mu` are flagged at every access made without mu held
//     (outside *Locked functions). The dynamic race-soak cross-check
//     (-racecheck) re-attributes GORACE reports to these findings.
//
// The suite runs on a whole-program type-checked view (see the analysis
// package): packages are loaded and type-checked once, analyzers run in
// dependency order in parallel across packages, and facts exported while
// analyzing a dependency are visible to its dependents. hotalloc,
// sharedstate, lockorder and goleak read one call graph per package
// (callgraph.go), built by the first of them to run: one scan of every
// body, interface calls resolved once against the module's types. A finding can be
// suppressed with a reasoned directive on or above the flagged line:
//
//	//lint:ignore <analyzer> <reason>
//
// The analyzer name must match exactly, and a directive that suppresses
// nothing is itself reported, so stale exemptions cannot linger. The
// directive is the only way to suppress a finding.
package lint

import (
	"go/ast"
	"strconv"
	"strings"

	"iddqsyn/internal/lint/analysis"
)

// Analyzers returns the full iddqlint suite in reporting order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		PanicPolicy, CtxLoop, CloseCheck, RenameAtomic,
		DetermTaint, ErrWrapCheck,
		HotAlloc, LockOrder, GoLeak, SpanEnd, SharedState,
	}
}

// Names returns the analyzer names in suite order, plus the framework's
// directive-hygiene pseudo-analyzer — the full universe a lint:ignore
// directive may legally name.
func Names() []string {
	names := make([]string, 0, len(Analyzers())+1)
	for _, a := range Analyzers() {
		names = append(names, a.Name)
	}
	return append(names, analysis.DirectiveAnalyzer)
}

// ByName resolves one analyzer by name.
func ByName(name string) (*analysis.Analyzer, bool) {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a, true
		}
	}
	return nil, false
}

// Applies reports whether an analyzer's policy covers the given import
// path. The panic policy governs library code only — commands and examples
// may still panic at top level; renameatomic exempts internal/fsx, the one
// package allowed to call os.Rename (it implements the atomic-write helper
// everyone else must use). The other checks apply everywhere.
func Applies(a *analysis.Analyzer, pkgPath string) bool {
	switch a.Name {
	case PanicPolicy.Name:
		return strings.HasPrefix(pkgPath, "internal/") ||
			strings.Contains(pkgPath, "/internal/")
	case RenameAtomic.Name:
		return pkgPath != "internal/fsx" &&
			!strings.HasSuffix(pkgPath, "/internal/fsx")
	}
	return true
}

// importName returns the local name under which file f imports path, or
// "" if the file does not import it. A dot import returns ".".
func importName(f *ast.File, path string) string {
	for _, imp := range f.Imports {
		p, err := strconv.Unquote(imp.Path.Value)
		if err != nil || p != path {
			continue
		}
		if imp.Name != nil {
			return imp.Name.Name
		}
		// Default name: the last path element ("math/rand" -> "rand").
		if i := strings.LastIndex(p, "/"); i >= 0 {
			return p[i+1:]
		}
		return p
	}
	return ""
}
