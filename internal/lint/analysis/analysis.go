// Package analysis is a minimal, dependency-free, *types-aware* mirror of
// the golang.org/x/tools/go/analysis API: an Analyzer is a named check with
// a Run function over one type-checked package, a Pass carries the package
// being checked plus its type information, and diagnostics are reported
// through the Pass.
//
// The module deliberately has no third-party dependencies, so the real
// x/tools framework is unavailable; this package reproduces the subset the
// iddqlint suite needs using only the standard library (go/ast, go/types,
// go/importer). Compared to the v1 framework, which parsed files one
// package at a time and ran purely syntactic checks, v2:
//
//   - loads the whole module as one Program: a shared token.FileSet, an
//     in-module import graph, and one type-checked world, so a types.Object
//     seen in package A is pointer-identical when package B references it;
//   - type-checks packages and runs analyzers in dependency order, in
//     parallel across packages (see Program.Run);
//   - propagates Facts: an analyzer can record a property of an object
//     (e.g. "this function's result derives from time.Now") while checking
//     the defining package and consume it while checking an importer.
//
// The standard library itself is type-checked from source via
// go/importer's "source" compiler, once per process, so analyzers see real
// types for time.Now, *rand.Rand, error and friends without any export
// data or third-party loader.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
	"sync"
)

// Direction is the fact-flow direction of an analyzer, which decides the
// package order it runs in (see Program.Run).
type Direction int

const (
	// Forward analyzers run dependencies-first: facts they export while
	// analyzing a package are visible to the packages that import it.
	// This is the x/tools model and the zero value.
	Forward Direction = iota
	// Reverse analyzers run dependents-first: facts they export while
	// analyzing a package are visible to the packages it imports. This is
	// the direction of caller→callee properties — a callee inherits
	// "reachable from a hot root" from its callers, which live in
	// importing packages.
	Reverse
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and ignore directives.
	// It must be a valid Go identifier.
	Name string
	// Doc is the one-paragraph help text shown by `iddqlint -list`.
	Doc string
	// FactTypes lists the fact values the analyzer may export; every fact
	// type an analyzer passes to ExportObjectFact/ExportPackageFact must
	// appear here (the runner validates exports against this list).
	FactTypes []Fact
	// Direction selects the wave the analyzer runs in: Forward (the
	// default, dependencies first) or Reverse (dependents first).
	Direction Direction
	// Run applies the analyzer to one package, reporting findings through
	// pass.Report. The returned value is ignored by the framework itself
	// but handed to Options.OnResult, so drivers can collect structured
	// per-package results (the escape cross-check harness does).
	Run func(pass *Pass) (interface{}, error)
}

// Fact is a property of a types.Object or a package, exported while
// analyzing the defining package and importable while analyzing any
// package that (transitively) depends on it. Implementations are pointers
// to concrete structs; AFact is a marker method.
type Fact interface{ AFact() }

// Package is one loaded and type-checked Go package.
type Package struct {
	// Path is the import path, e.g. "iddqsyn/internal/atpg".
	Path string
	// Name is the package name from the package clauses.
	Name string
	// Dir is the directory the sources were read from.
	Dir string
	// Fset is the Program-wide FileSet positioning every file.
	Fset *token.FileSet
	// Files holds every parsed source file of the package, test files
	// included (analyzers that exempt tests use Pass.IsTestFile).
	Files []*ast.File
	// CheckedFiles is the subset of Files that participates in the
	// type-check: non-test files of the primary package. Test files are
	// parsed (for ignore directives and syntactic checks) but carry no
	// type information.
	CheckedFiles []*ast.File
	// Types and TypesInfo hold the type-checked package; nil until the
	// runner has checked it. TypesInfo covers CheckedFiles only.
	Types     *types.Package
	TypesInfo *types.Info
	// Imports are the in-module dependencies, in no particular order.
	Imports []*Package

	// importPaths is every import path mentioned by CheckedFiles.
	importPaths []string

	// shared holds the values Pass.Shared derived from the current
	// type-check; typeCheck resets it.
	sharedMu sync.Mutex
	shared   map[interface{}]interface{}
}

// Pass connects one Analyzer run to one Package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	Fset     *token.FileSet
	Files    []*ast.File
	// TypesPkg and TypesInfo expose the package's type information.
	// TypesInfo covers non-test files only; ast.Nodes from test files
	// resolve to nil objects/types.
	TypesPkg  *types.Package
	TypesInfo *types.Info

	// Report delivers one diagnostic. The framework fills this in; Run
	// implementations call it (or the Reportf convenience).
	Report func(Diagnostic)

	facts *factStore
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// IsTestFile reports whether the file was parsed from a _test.go source.
func (p *Pass) IsTestFile(f *ast.File) bool {
	return strings.HasSuffix(p.Fset.Position(f.Pos()).Filename, "_test.go")
}

// Shared returns the value build derives from the pass's package,
// building it on the first call for key and returning it to every later
// pass over the same type-check of the package, in either wave, so
// analyzers reading one derived structure (iddqlint's call graph) build
// it once. build may only read the package: it must not report, touch
// facts, or call Shared for the same package. The Package holds the
// value until it is type-checked again, so it never outlives the Program.
func (p *Pass) Shared(key interface{}, build func() interface{}) interface{} {
	p.Pkg.sharedMu.Lock()
	defer p.Pkg.sharedMu.Unlock()
	v, ok := p.Pkg.shared[key]
	if !ok {
		v = build()
		p.Pkg.shared[key] = v
	}
	return v
}

// ExportObjectFact records fact about obj. The fact becomes visible to
// this analyzer (and to -fact-debug) while checking any package that
// depends on the one being analyzed. The fact's dynamic type must be
// listed in the analyzer's FactTypes.
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	if obj == nil {
		//lint:ignore panicpolicy analyzer-author API misuse, not a runtime condition
		panic("ExportObjectFact: nil object")
	}
	p.facts.exportObject(p.Analyzer, obj, fact)
}

// ImportObjectFact copies the fact of fact's type previously exported for
// obj into fact, reporting whether one was found. Facts exported by the
// current package's own pass are visible too, so intra-package fixpoints
// can use the same API as cross-package lookups.
func (p *Pass) ImportObjectFact(obj types.Object, fact Fact) bool {
	if obj == nil {
		return false
	}
	return p.facts.importObject(obj, fact)
}

// ExportPackageFact records fact about the package being analyzed.
func (p *Pass) ExportPackageFact(fact Fact) {
	p.facts.exportPackage(p.Analyzer, p.TypesPkg, fact)
}

// ImportPackageFact copies the fact of fact's type previously exported
// for pkg into fact, reporting whether one was found.
func (p *Pass) ImportPackageFact(pkg *types.Package, fact Fact) bool {
	if pkg == nil {
		return false
	}
	return p.facts.importPackage(pkg, fact)
}

// Diagnostic is one finding, positioned in the Program's FileSet.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string // filled in by the framework
}

// Finding is a resolved diagnostic ready for printing or comparison.
type Finding struct {
	Position token.Position
	Analyzer string
	Message  string
}

// String renders the finding in the conventional file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Position, f.Analyzer, f.Message)
}

// Inspect walks every node of every non-nil file in depth-first order,
// calling fn; fn returning false prunes the subtree. It mirrors
// ast.Inspect over a whole pass.
func Inspect(files []*ast.File, fn func(ast.Node) bool) {
	for _, f := range files {
		ast.Inspect(f, fn)
	}
}
