package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"iddqsyn/internal/lint/analysis"
)

// HotAlloc reports allocation sites reachable from //lint:hotpath roots.
//
// The PART-IDDQ descendant-evaluation loop is the hot path that bounds
// every scale target: a single fmt.Sprintf or escaping closure slipped
// into it costs 2-10x and no tier-1 test notices. hotalloc makes that
// property statically checkable. A function annotated
//
//	//lint:hotpath <reason>
//
// is a hot root; hotness propagates caller→callee along every edge of
// the package's call graph (callGraphOf): calls, interface calls
// resolved to their implementations in the package and its in-module
// imports, named `go` spawns, and functions named without being called
// (values that may be called by whatever they are passed to). The
// analyzer runs in the framework's reverse wave — dependents before
// dependencies — so a Hot fact exported while analyzing evolution (the
// caller) is visible when partition and estimate (the callees) are
// analyzed.
//
// Inside hot functions the analyzer flags, pre-escape-analysis, every
// construct that *can* allocate: composite literals of reference types
// and &T{} literals, make and new, append whose backing growth is not
// provably amortized (the first argument is neither a caller-provided
// buffer parameter nor a local made with explicit capacity), interface
// boxing at call sites (a concrete value passed to an interface
// parameter — the fmt functions are the canonical case), closures, and
// string concatenation. The compiler's real escape analysis is the
// ground truth; `iddqlint -escapecheck` (make lint-escape) diffs these
// verdicts against -gcflags=-m output and fails on analyzer false
// negatives, so the approximation can only err on the loud side.
//
// Cold paths inside hot functions (error returns, once-per-batch setup)
// are justified with //lint:ignore hotalloc <reason> — the reasons are
// the documentation of why each allocation is acceptable.
//
// Calls into the observation packages (obs, chaos) neither propagate
// hotness nor have their boxing flagged: observation on the hot path is
// exempt by design (the chaos soak proves it does not perturb results),
// and its cost is budgeted separately.
var HotAlloc = &analysis.Analyzer{
	Name: "hotalloc",
	Doc: "report allocation sites (composite literals, make/new, unamortized append, " +
		"interface boxing, closures, string concatenation) in functions reachable from " +
		"//lint:hotpath roots; the statically checked form of the allocation-free hot-loop invariant",
	FactTypes: []analysis.Fact{(*HotFact)(nil)},
	Direction: analysis.Reverse,
	Run:       runHotAlloc,
}

// HotFact marks a function as reachable from a hotpath root. It is
// exported for the function objects a hot function calls, so hotness
// crosses package boundaries against the import direction.
type HotFact struct {
	Root   string // qualified name of the annotated root, e.g. "partition.PenalisedCost"
	Reason string // the root's annotation reason
}

// AFact marks HotFact as a framework fact.
func (*HotFact) AFact() {}

func (f *HotFact) String() string { return fmt.Sprintf("hot (root %s: %s)", f.Root, f.Reason) }

// HotpathDirective is the comment prefix that declares a hot root:
//
//	//lint:hotpath <reason>
//
// in the doc comment of a function or method declaration. The reason is
// mandatory — it documents *why* the function's transitive callees must
// stay allocation-lean (e.g. "descendant evaluation loop, runs millions
// of times per optimization"). The hotalloc analyzer propagates a Hot
// fact from these roots over a conservative static call graph.
const HotpathDirective = "lint:hotpath"

// ParseHotpath parses one comment's text (with or without the leading
// //). It returns ok=false when the comment is not a hotpath directive at
// all, and malformed=true when it is one but carries no reason.
func ParseHotpath(text string) (reason string, ok, malformed bool) {
	text = strings.TrimPrefix(text, "//")
	if strings.HasPrefix(text, "/*") {
		text = strings.TrimSuffix(strings.TrimPrefix(text, "/*"), "*/")
	}
	text = strings.TrimSpace(text)
	rest, isDir := strings.CutPrefix(text, HotpathDirective)
	if !isDir {
		return "", false, false
	}
	// Reject "lint:hotpathological": the directive must be followed by
	// whitespace (or nothing, which is the malformed case).
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return "", false, false
	}
	reason = strings.TrimSpace(rest)
	if reason == "" {
		return "", true, true
	}
	return reason, true, false
}

// hotRoot is one function annotated //lint:hotpath.
type hotRoot struct {
	fn     fnInfo
	reason string
}

// collectHotRoots finds every hotpath-annotated function declaration in
// the package and reports directive hygiene violations: a directive with
// no reason, or one not attached to a function declaration.
func collectHotRoots(pass *analysis.Pass, funcs []*fnNode) []hotRoot {
	// Directives legitimately attached to a declaration's doc comment.
	attached := map[*ast.Comment]bool{}
	var roots []hotRoot
	for _, fn := range funcs {
		if fn.decl.Doc == nil {
			continue
		}
		for _, c := range fn.decl.Doc.List {
			reason, ok, malformed := ParseHotpath(c.Text)
			if !ok {
				continue
			}
			attached[c] = true
			if malformed {
				pass.Reportf(c.Pos(),
					"hotpath directive requires a reason: //lint:hotpath <why this call tree is performance-critical>")
				continue
			}
			roots = append(roots, hotRoot{fn: fn.fnInfo, reason: reason})
		}
	}
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if _, ok, _ := ParseHotpath(c.Text); ok && !attached[c] {
					pass.Reportf(c.Pos(),
						"hotpath directive must be in the doc comment of a function or method declaration")
				}
			}
		}
	}
	return roots
}

// hotExemptPackages are package base names whose functions never become
// hot and whose call sites are not boxing-checked: observation and fault
// injection are exempt from the allocation budget by design.
var hotExemptPackages = map[string]bool{"obs": true, "chaos": true}

// HotFunc is one function the analyzer concluded is hot, with its body's
// line range — the escape cross-check scans compiler diagnostics inside
// these ranges.
type HotFunc struct {
	Name      string
	File      string
	DeclLine  int // line of the func name in the declaration
	StartLine int
	EndLine   int
	Root      string
}

// CallSite is one call inside a hot function body to a statically
// resolvable function, keyed by the callee's declaration position. The
// compiler attributes an inlined callee's escape diagnostics to the call
// line in the *caller*, so the escape cross-check uses these records to
// credit such re-attributed diagnostics to the callee's own sites.
type CallSite struct {
	File       string // call position
	Line       int
	CalleeFile string // callee's declaration position
	CalleeLine int
}

// AllocSite is one pre-suppression hotalloc site. The escape cross-check
// matches compiler heap diagnostics against these, so a site justified
// with //lint:ignore — or discounted as cold — still counts as "the
// analyzer saw it".
type AllocSite struct {
	File string
	Line int
	Kind string
	// Cold marks a site on a failure path (panic argument, return of a
	// non-nil error, recover-guarded block): recorded for the escape
	// cross-check, but not reported as a finding — error construction on a
	// terminal path runs once per failure, not once per iteration.
	Cold bool
}

// HotAllocResult is runHotAlloc's return value, collected by the escape
// cross-check harness through analysis.Options.OnResult.
type HotAllocResult struct {
	Pkg       string
	HotFuncs  []HotFunc
	Allocs    []AllocSite
	CallSites []CallSite
}

func runHotAlloc(pass *analysis.Pass) (interface{}, error) {
	if hotExemptPackages[pkgBase(pass.Pkg.Path)] {
		return nil, nil
	}
	g := callGraphOf(pass)
	roots := collectHotRoots(pass, g.funcs)

	// Seed the hot set: this package's annotated roots, plus every
	// function a dependent package's pass already marked hot.
	hot := map[*types.Func]*HotFact{}
	var work []*types.Func
	markHot := func(fn *types.Func, fact *HotFact) {
		if hot[fn] == nil {
			hot[fn] = fact
			work = append(work, fn)
		}
	}
	for _, r := range roots {
		markHot(r.fn.obj, &HotFact{Root: pkgBase(pass.Pkg.Path) + "." + r.fn.obj.Name(), Reason: r.reason})
	}
	for _, fn := range g.funcs {
		fact := new(HotFact)
		if pass.ImportObjectFact(fn.obj, fact) {
			markHot(fn.obj, fact)
		}
	}
	if len(hot) == 0 {
		return &HotAllocResult{Pkg: pass.Pkg.Path}, nil
	}

	// Propagate caller→callee to a fixpoint over every edge kind: calls,
	// named spawns and function references. Callees in this package join
	// the local worklist; callees in other module packages get the fact
	// exported (their packages run later in the reverse wave). Callees
	// outside the module are never analyzed, so they get nothing. The
	// observation exemption stops propagation into obs/chaos.
	for len(work) > 0 {
		fn := work[0]
		work = work[1:]
		node, ok := g.byObj[fn]
		if !ok {
			continue // defined elsewhere; its own package's pass reports it
		}
		fact := hot[fn]
		for _, e := range node.edges {
			callee := e.callee
			if !g.module[callee.Pkg()] || hotExemptPackages[pkgBase(callee.Pkg().Path())] {
				continue
			}
			if callee.Pkg() == pass.TypesPkg {
				markHot(callee, fact)
				continue
			}
			already := new(HotFact)
			if !pass.ImportObjectFact(callee, already) {
				pass.ExportObjectFact(callee, fact)
			}
		}
	}

	// Export facts for this package's own hot functions too (visible to
	// -fact-debug and to later passes over depending packages' tests).
	for fn, fact := range hot {
		already := new(HotFact)
		if !pass.ImportObjectFact(fn, already) {
			pass.ExportObjectFact(fn, fact)
		}
	}

	// Report allocation sites in this package's hot function bodies.
	res := &HotAllocResult{Pkg: pass.Pkg.Path}
	for _, fn := range g.funcs {
		if hot[fn.obj] == nil {
			continue
		}
		start := pass.Fset.Position(fn.decl.Body.Pos())
		end := pass.Fset.Position(fn.decl.Body.End())
		res.HotFuncs = append(res.HotFuncs, HotFunc{
			Name: fn.obj.Name(), File: start.Filename,
			DeclLine:  pass.Fset.Position(fn.decl.Name.Pos()).Line,
			StartLine: start.Line, EndLine: end.Line,
			Root: hot[fn.obj].Root,
		})
		reportHotAllocs(pass, fn.fnInfo, hot[fn.obj], res)
	}
	return res, nil
}

// reportHotAllocs walks one hot function body and reports every
// can-allocate construct, recording each (pre-suppression) in res.
func reportHotAllocs(pass *analysis.Pass, fn fnInfo, fact *HotFact, res *HotAllocResult) {
	seen := map[token.Pos]bool{}
	cold := coldRanges(pass, fn.decl.Body)
	report := func(pos token.Pos, kind, detail string) {
		if seen[pos] {
			return
		}
		seen[pos] = true
		p := pass.Fset.Position(pos)
		for _, r := range cold {
			if pos >= r.from && pos < r.to {
				res.Allocs = append(res.Allocs, AllocSite{File: p.Filename, Line: p.Line, Kind: kind, Cold: true})
				return
			}
		}
		res.Allocs = append(res.Allocs, AllocSite{File: p.Filename, Line: p.Line, Kind: kind})
		pass.Reportf(pos, "%s on the hot path%s: %q is reachable from //lint:hotpath root %s (%s); "+
			"hoist it out of the loop, reuse a scratch buffer, or justify with //lint:ignore hotalloc <reason>",
			kind, detail, fn.obj.Name(), fact.Root, fact.Reason)
	}
	body := fn.decl.Body
	ast.Inspect(body, func(n ast.Node) bool {
		switch nn := n.(type) {
		case *ast.CompositeLit:
			tv, ok := pass.TypesInfo.Types[nn]
			if !ok {
				return true
			}
			switch tv.Type.Underlying().(type) {
			case *types.Slice, *types.Map:
				report(nn.Pos(), "composite literal", "")
			}
		case *ast.UnaryExpr:
			if nn.Op == token.AND {
				if lit, ok := ast.Unparen(nn.X).(*ast.CompositeLit); ok {
					report(lit.Pos(), "composite literal", " (address taken)")
				}
			}
		case *ast.FuncLit:
			report(nn.Pos(), "closure", "")
		case *ast.BinaryExpr:
			if nn.Op == token.ADD && isStringType(pass, nn) {
				report(nn.Pos(), "string concatenation", "")
			}
		case *ast.CallExpr:
			reportHotCall(pass, fn, nn, report)
			if callee := calleeFuncOf(pass, nn); callee != nil && callee.Pkg() != nil && callee.Pos().IsValid() {
				cp := pass.Fset.Position(nn.Pos())
				dp := pass.Fset.Position(callee.Pos())
				res.CallSites = append(res.CallSites, CallSite{
					File: cp.Filename, Line: cp.Line,
					CalleeFile: dp.Filename, CalleeLine: dp.Line,
				})
			}
		}
		return true
	})
}

// posRange is a half-open [from, to) position interval.
type posRange struct{ from, to token.Pos }

// coldRanges collects the failure-path intervals of one function body:
// panic arguments, return statements yielding a non-nil error, and
// recover-guarded blocks. Allocation inside them runs once per failure —
// it is recorded for the escape cross-check but not worth a finding.
func coldRanges(pass *analysis.Pass, body *ast.BlockStmt) []posRange {
	var out []posRange
	ast.Inspect(body, func(n ast.Node) bool {
		switch nn := n.(type) {
		case *ast.CallExpr:
			if id, ok := ast.Unparen(nn.Fun).(*ast.Ident); ok {
				if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok && b.Name() == "panic" {
					out = append(out, posRange{nn.Pos(), nn.End()})
				}
			}
		case *ast.ReturnStmt:
			for _, res := range nn.Results {
				if isNonNilError(pass, res) {
					out = append(out, posRange{nn.Pos(), nn.End()})
					break
				}
			}
		case *ast.IfStmt:
			if usesRecover(pass, nn.Init) || usesRecover(pass, nn.Cond) {
				out = append(out, posRange{nn.Body.Pos(), nn.Body.End()})
			}
		}
		return true
	})
	return out
}

// isNonNilError reports whether a return result is an error-typed
// expression other than the literal nil.
func isNonNilError(pass *analysis.Pass, e ast.Expr) bool {
	if id, ok := ast.Unparen(e).(*ast.Ident); ok && id.Name == "nil" {
		return false
	}
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	return types.Identical(tv.Type, types.Universe.Lookup("error").Type())
}

// usesRecover reports whether the node contains a call of the recover
// builtin.
func usesRecover(pass *analysis.Pass, n ast.Node) bool {
	if n == nil {
		return false
	}
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
				if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok && b.Name() == "recover" {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// reportHotCall classifies one call inside a hot function: builtin
// allocators (make, new, unamortized append) and interface boxing of
// concrete arguments.
func reportHotCall(pass *analysis.Pass, fn fnInfo, call *ast.CallExpr,
	report func(pos token.Pos, kind, detail string)) {

	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				report(call.Pos(), "make", "")
			case "new":
				report(call.Pos(), "new", "")
			case "append":
				if len(call.Args) > 0 && !amortizedAppend(pass, fn, call.Args[0]) {
					report(call.Pos(), "append (growth not provably amortized)", "")
				}
			case "panic":
				// panic's argument is boxed into an interface{}. The site
				// is always inside a cold range, so it is recorded for the
				// escape cross-check but never reported as a finding.
				for _, arg := range call.Args {
					if boxes(pass, arg) {
						report(arg.Pos(), "interface boxing", "")
					}
				}
			}
			return
		}
	}
	callee := calleeFuncOf(pass, call)
	if callee != nil && callee.Pkg() != nil && hotExemptPackages[pkgBase(callee.Pkg().Path())] {
		return // observation exemption
	}
	var sig *types.Signature
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok {
		if tv.IsType() {
			return // conversion, not a call
		}
		sig, _ = tv.Type.Underlying().(*types.Signature)
	}
	if sig == nil && callee != nil {
		sig, _ = callee.Type().(*types.Signature)
	}
	if sig == nil {
		return
	}
	for i, arg := range call.Args {
		pt := paramTypeAt(sig, i)
		if pt == nil {
			break
		}
		if _, isIface := pt.Underlying().(*types.Interface); isIface && boxes(pass, arg) {
			report(arg.Pos(), "interface boxing", "")
		}
	}
}

// boxes reports whether storing arg in an interface allocates: it is a
// non-nil concrete value that is not pointer-shaped. An interface value
// needs no boxing, and pointers, channels, maps and funcs are stored
// directly in the interface's data word.
func boxes(pass *analysis.Pass, arg ast.Expr) bool {
	at, ok := pass.TypesInfo.Types[arg]
	if !ok || at.Type == nil || at.IsNil() {
		return false
	}
	switch at.Type.Underlying().(type) {
	case *types.Interface, *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return false
	}
	return true
}

// paramTypeAt returns the effective parameter type for argument i,
// unrolling the variadic tail (f(xs...) spread calls return the slice
// type itself and are filtered out by the interface check).
func paramTypeAt(sig *types.Signature, i int) types.Type {
	n := sig.Params().Len()
	if n == 0 {
		return nil
	}
	if sig.Variadic() && i >= n-1 {
		last := sig.Params().At(n - 1).Type()
		if sl, ok := last.(*types.Slice); ok {
			return sl.Elem()
		}
		return last
	}
	if i >= n {
		return nil
	}
	return sig.Params().At(i).Type()
}

// amortizedAppend reports whether the append target's growth is provably
// amortized: the slice is a caller-provided parameter (the Append*
// scratch-buffer idiom — amortization is the caller's choice), or a
// local assigned from a make with an explicit capacity in this function.
func amortizedAppend(pass *analysis.Pass, fn fnInfo, target ast.Expr) bool {
	id, ok := ast.Unparen(target).(*ast.Ident)
	if !ok {
		return false
	}
	obj := pass.TypesInfo.Uses[id]
	if obj == nil {
		obj = pass.TypesInfo.Defs[id]
	}
	v, ok := obj.(*types.Var)
	if !ok {
		return false
	}
	if isParamOf(fn, v) {
		return true
	}
	madeWithCap := false
	ast.Inspect(fn.decl.Body, func(n ast.Node) bool {
		if madeWithCap {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range as.Lhs {
			lid, ok := lhs.(*ast.Ident)
			if !ok || i >= len(as.Rhs) {
				continue
			}
			lobj := pass.TypesInfo.Defs[lid]
			if lobj == nil {
				lobj = pass.TypesInfo.Uses[lid]
			}
			if lobj != v {
				continue
			}
			if mk, ok := ast.Unparen(as.Rhs[i]).(*ast.CallExpr); ok {
				if mid, ok := ast.Unparen(mk.Fun).(*ast.Ident); ok {
					if b, ok := pass.TypesInfo.Uses[mid].(*types.Builtin); ok &&
						b.Name() == "make" && len(mk.Args) >= 3 {
						madeWithCap = true
					}
				}
			}
		}
		return true
	})
	return madeWithCap
}

// isParamOf reports whether v is a parameter (or receiver) of fn.
func isParamOf(fn fnInfo, v *types.Var) bool {
	sig, ok := fn.obj.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if sig.Params().At(i) == v {
			return true
		}
	}
	return sig.Recv() == v
}

// isStringType reports whether the expression has string type.
func isStringType(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}
