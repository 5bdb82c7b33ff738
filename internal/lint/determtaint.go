package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"

	"iddqsyn/internal/lint/analysis"
)

// DetermTaint statically enforces the determinism contract that
// TestChaosSoak checks dynamically: seeded (μ, λ, χ)-runs must be
// bit-identical across resume, observation and chaos injection, so no
// nondeterministic value may flow into the seeded optimizer path or into
// checkpoint/snapshot bytes.
//
// Taint sources (sourceName classifies the call sources, the first two):
//
//   - the wall clock and process identity: time.Now, time.Since,
//     os.Getpid;
//   - the process-global math/rand stream: every package-level
//     math/rand or math/rand/v2 function except the New* constructors,
//     which build a stream from an explicit seed;
//   - map iteration order: a `for range` over a map that appends to an
//     outer slice (unless that slice is subsequently sorted in the same
//     function) or writes loop-derived data through a serializer;
//   - select races: a select with two or more ready-able communication
//     cases (receives on <-ctx.Done()-style cancellation channels are
//     exempt) resolves nondeterministically.
//
// Three file-level checks hold in every non-test file, on the seeded
// path or not, because the generator state they guard is process-wide:
// a reference to a global-stream function (resolved through the type
// checker, so renamed imports and function values are caught), a dot
// import of math/rand, which hides such references, and a seed
// constructor (NewSource, NewPCG, NewChaCha8) whose argument carries
// taint. A global-stream call or a tainted seed is reported once, by
// these checks; the flow checks below do not repeat it.
//
// Taint propagates through local assignments, function results and
// stores into non-local memory. A function whose results (or writes
// through parameters/receivers/package variables) derive from a source
// carries a TaintedFact, exported through the framework's fact store, so
// a nondeterministic helper defined in one package is caught when a
// seeded-path function in another package calls it — the analyzers run in
// dependency order, so callee facts always precede caller checks.
//
// The seeded optimizer path ("determinism scope") is every function in
// the optimizer packages (evolution, anneal, hillclimb, estimate,
// partition — package base names, so golden testdata can reproduce the
// layout) plus any function anywhere that takes a *math/rand.Rand
// parameter: accepting the injected seeded stream is the API signal that
// the function participates in the counted-stream contract.
//
// Observability is exempt by design: values consumed by (or produced by)
// the obs package — metrics, spans, structured logs — never feed
// optimization decisions or checkpoint bytes, and the chaos soak verifies
// that observation does not perturb results. Calls into an "obs"
// package are therefore neither taint sources nor taint sinks.
var DetermTaint = &analysis.Analyzer{
	Name: "determtaint",
	Doc: "forbid nondeterministic values (wall clock, process identity, global rand, " +
		"map iteration order, select races) from flowing into the seeded optimizer " +
		"path or checkpoint bytes, and the process-global math/rand stream and " +
		"tainted seeds in any non-test code; the statically checked form of the bit-identical-resume invariant",
	FactTypes: []analysis.Fact{(*TaintedFact)(nil)},
	Run:       runDetermTaint,
}

// TaintedFact marks a function whose results (or writes through escaping
// memory) derive from a nondeterminism source.
type TaintedFact struct {
	Source string // e.g. "time.Now", "map iteration order"
	At     string // file:line of the root source
}

// AFact marks TaintedFact as a framework fact.
func (*TaintedFact) AFact() {}

func (f *TaintedFact) String() string { return fmt.Sprintf("tainted by %s at %s", f.Source, f.At) }

// determScopePackages are the package base names forming the seeded
// optimizer path.
var determScopePackages = map[string]bool{
	"evolution": true, "anneal": true, "hillclimb": true,
	"estimate": true, "partition": true,
}

// exemptPackages are observation-only package base names: calls into them
// are neither sources nor sinks (see the analyzer doc).
var exemptPackages = map[string]bool{"obs": true}

// wallClockFuncs are the wall-clock and process-identity sources, by
// package path and function name.
var wallClockFuncs = map[string]map[string]bool{
	"time": {"Now": true, "Since": true},
	"os":   {"Getpid": true},
}

// seedConstructors are the math/rand(/v2) constructors whose arguments
// seed a source: a tainted argument makes the stream unreproducible.
var seedConstructors = map[string]bool{"NewSource": true, "NewPCG": true, "NewChaCha8": true}

func isRandPath(path string) bool { return path == "math/rand" || path == "math/rand/v2" }

func isSeedConstructor(fn *types.Func) bool {
	return fn != nil && fn.Pkg() != nil && isRandPath(fn.Pkg().Path()) && seedConstructors[fn.Name()]
}

func pkgBase(path string) string {
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}

func runDetermTaint(pass *analysis.Pass) (interface{}, error) {
	t := &taintChecker{pass: pass, inScopePkg: determScopePackages[pkgBase(pass.Pkg.Path)]}

	funcs := packageFuncs(pass)
	// Fixpoint over the package's own call graph: keep re-deriving
	// function taint until no new fact appears, so helper chains within
	// the package resolve regardless of declaration order. Facts from
	// dependency packages are already in the store (dependency-order
	// scheduling), so cross-package chains need no iteration here.
	for changed := true; changed; {
		changed = false
		for _, fn := range funcs {
			if t.deriveFact(fn) {
				changed = true
			}
		}
	}
	// File-level checks, in every non-test file (test files are never
	// type-checked): no reference to the global stream, no dot import
	// that would hide one, and no seed constructor fed a tainted value.
	for _, f := range pass.Pkg.CheckedFiles {
		if importName(f, "math/rand") == "." || importName(f, "math/rand/v2") == "." {
			pass.Reportf(f.Pos(), "dot-import of math/rand hides global stream use; import it by name")
		}
		for _, decl := range f.Decls {
			ast.Inspect(decl, func(n ast.Node) bool {
				switch nn := n.(type) {
				case *ast.Ident:
					fn, _ := pass.TypesInfo.Uses[nn].(*types.Func)
					if _, global := sourceName(fn); global {
						pass.Reportf(nn.Pos(),
							"%s.%s draws from the process-global math/rand stream; use an injected seeded *rand.Rand instead",
							fn.Pkg().Path(), fn.Name())
					}
				case *ast.CallExpr:
					if !isSeedConstructor(calleeFuncOf(pass, nn)) {
						return true
					}
					// Package-level initializers have no locals.
					st := &taintState{t: t}
					if fd, ok := decl.(*ast.FuncDecl); ok {
						st = t.analyzeLocals(fd.Body)
					}
					for _, arg := range nn.Args {
						if fact := st.exprTaint(arg); fact != nil {
							pass.Reportf(nn.Pos(),
								"rand source seeded from %s is not reproducible; derive the seed from configuration",
								fact.Source)
							break
						}
					}
				}
				return true
			})
		}
	}
	// Flow reports: only functions on the seeded optimizer path.
	for _, fn := range funcs {
		if t.inScope(fn) {
			t.reportFunc(fn)
		}
	}
	return nil, nil
}

type taintChecker struct {
	pass       *analysis.Pass
	inScopePkg bool
}

// inScope reports whether fn participates in the determinism contract.
func (t *taintChecker) inScope(fn fnInfo) bool {
	return t.inScopePkg || takesRand(fn.obj)
}

// takesRand reports whether the function takes a *math/rand.Rand
// parameter — the injected-seeded-stream API signal.
func takesRand(obj *types.Func) bool {
	sig, ok := obj.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		ptr, ok := sig.Params().At(i).Type().(*types.Pointer)
		if !ok {
			continue
		}
		named, ok := ptr.Elem().(*types.Named)
		if !ok || named.Obj().Name() != "Rand" {
			continue
		}
		if pkg := named.Obj().Pkg(); pkg != nil && isRandPath(pkg.Path()) {
			return true
		}
	}
	return false
}

// taintState is the per-function local analysis result.
type taintState struct {
	t *taintChecker
	// vars maps tainted local objects to their root source.
	vars map[types.Object]*TaintedFact
	// cleansed records objects whose map-order taint a sort call removed.
	// A cleansed object never re-acquires map-order taint: without this,
	// a var deriving map-order taint from another still-tainted var
	// (`out := make(..., len(ids))`) and later sorted would be re-tainted
	// and re-cleansed every round, and the fixpoint would never converge.
	cleansed map[types.Object]bool
}

const mapOrderSource = "map iteration order"

// setVar taints obj with fact, reporting whether the state changed.
// Taint is set-once, and cleansed objects refuse the cleansable
// (map-order) source, which keeps the fixpoint monotone.
func (st *taintState) setVar(obj types.Object, fact *TaintedFact) bool {
	if obj == nil || st.vars[obj] != nil {
		return false
	}
	if st.cleansed[obj] && fact.Source == mapOrderSource {
		return false
	}
	st.vars[obj] = fact
	return true
}

// analyzeLocals runs the local taint propagation to a fixpoint: local
// assignments carry taint forward; sort calls cleanse map-order taint;
// map-range appends introduce it.
func (t *taintChecker) analyzeLocals(body *ast.BlockStmt) *taintState {
	st := &taintState{
		t:        t,
		vars:     map[types.Object]*TaintedFact{},
		cleansed: map[types.Object]bool{},
	}
	for changed := true; changed; {
		changed = false
		ast.Inspect(body, func(n ast.Node) bool {
			switch nn := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range nn.Lhs {
					id, ok := lhs.(*ast.Ident)
					if !ok || id.Name == "_" {
						continue
					}
					if fact := st.exprTaint(assignedValue(nn, i)); fact != nil && st.setVar(st.objOf(id), fact) {
						changed = true
					}
				}
			case *ast.ValueSpec:
				for i, v := range nn.Values {
					if fact := st.exprTaint(v); fact != nil && st.setVar(t.pass.TypesInfo.Defs[nn.Names[i]], fact) {
						changed = true
					}
				}
			case *ast.RangeStmt:
				if !st.isMapRange(nn) {
					break
				}
				if tgt := st.unsortedAppendTarget(body, nn); tgt != nil &&
					st.setVar(tgt, &TaintedFact{Source: mapOrderSource, At: t.posOf(nn.Pos())}) {
					changed = true
				}
			case *ast.CallExpr:
				if obj := st.sortTarget(nn); obj != nil && st.vars[obj] != nil &&
					st.vars[obj].Source == mapOrderSource {
					delete(st.vars, obj)
					st.cleansed[obj] = true
					// Not flagged as "changed": the cleansed set makes
					// re-tainting impossible, so deletion converges.
				}
			}
			return true
		})
	}
	return st
}

// assignedValue returns the expression assigned to as.Lhs[i]: the i-th
// right-hand side, or the single one of a tuple assignment.
func assignedValue(as *ast.AssignStmt, i int) ast.Expr {
	if len(as.Rhs) == len(as.Lhs) {
		return as.Rhs[i]
	}
	return as.Rhs[0]
}

func (st *taintState) objOf(id *ast.Ident) types.Object {
	if obj := st.t.pass.TypesInfo.Defs[id]; obj != nil {
		return obj
	}
	return st.t.pass.TypesInfo.Uses[id]
}

// exprTaint returns the root fact when expr's value derives from a
// nondeterminism source: a source call, a call to a function with a
// TaintedFact, or a tainted local. Arguments of exempt (observation)
// calls are not inspected — their consumption is allowed — and the value
// an exempt call returns is considered clean.
func (st *taintState) exprTaint(expr ast.Expr) *TaintedFact {
	if expr == nil {
		return nil
	}
	var found *TaintedFact
	ast.Inspect(expr, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		switch nn := n.(type) {
		case *ast.CallExpr:
			callee := calleeFuncOf(st.t.pass, nn)
			if st.t.isExempt(callee) {
				return false // observation sink/source: prune
			}
			if fact := st.t.sourceFact(callee, nn.Pos()); fact != nil {
				found = fact
				return false
			}
			if fact := st.t.calleeFact(callee); fact != nil {
				found = fact
				return false
			}
		case *ast.Ident:
			if obj := st.objOf(nn); obj != nil {
				if fact := st.vars[obj]; fact != nil {
					found = fact
					return false
				}
			}
		case *ast.FuncLit:
			return false // separate activation; handled when called
		}
		return true
	})
	return found
}

// isMapRange reports whether the range statement iterates a map.
func (st *taintState) isMapRange(r *ast.RangeStmt) bool {
	tv, ok := st.t.pass.TypesInfo.Types[r.X]
	if !ok || tv.Type == nil {
		return false
	}
	typ := tv.Type
	if ptr, ok := typ.Underlying().(*types.Pointer); ok {
		typ = ptr.Elem()
	}
	_, isMap := typ.Underlying().(*types.Map)
	return isMap
}

// unsortedAppendTarget finds `x = append(x, ...)` inside a map-range body
// where x is declared outside the loop and never passed to sort.* or
// slices.Sort* later in the enclosing function; the append bakes the map's
// iteration order into x. Returns x's object, or nil.
func (st *taintState) unsortedAppendTarget(funcBody *ast.BlockStmt, r *ast.RangeStmt) types.Object {
	var target types.Object
	ast.Inspect(r.Body, func(n ast.Node) bool {
		if target != nil {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok {
			return true
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn, ok := call.Fun.(*ast.Ident); !ok || fn.Name != "append" {
			return true
		}
		obj := st.objOf(id)
		if obj == nil {
			return true
		}
		// Declared inside the loop body? Then the order never escapes the
		// iteration and is harmless.
		if obj.Pos() >= r.Body.Pos() && obj.Pos() <= r.Body.End() {
			return true
		}
		target = obj
		return false
	})
	if target == nil {
		return nil
	}
	// A subsequent sort re-establishes a canonical order.
	sorted := false
	ast.Inspect(funcBody, func(n ast.Node) bool {
		if sorted {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < r.End() {
			return true
		}
		if obj := st.sortTarget(call); obj == target {
			sorted = true
			return false
		}
		return true
	})
	if sorted {
		return nil
	}
	return target
}

// sortTarget returns the object of the first argument of a sort.* /
// slices.Sort* call (the slice being sorted), or nil.
func (st *taintState) sortTarget(call *ast.CallExpr) types.Object {
	callee := calleeFuncOf(st.t.pass, call)
	if callee == nil || callee.Pkg() == nil {
		return nil
	}
	switch callee.Pkg().Path() {
	case "sort":
	case "slices":
		if !strings.HasPrefix(callee.Name(), "Sort") {
			return nil
		}
	default:
		return nil
	}
	if len(call.Args) == 0 {
		return nil
	}
	if id, ok := call.Args[0].(*ast.Ident); ok {
		return st.objOf(id)
	}
	return nil
}

// isExempt reports whether the callee belongs to an observation package.
func (t *taintChecker) isExempt(callee *types.Func) bool {
	if callee == nil || callee.Pkg() == nil {
		return false
	}
	return exemptPackages[pkgBase(callee.Pkg().Path())]
}

// sourceName is the one source classifier: it names fn when fn is a
// primary nondeterminism source ("" otherwise), and reports whether the
// source is the process-global math/rand stream. Of math/rand(/v2)
// only package-level functions count: methods on an injected
// *rand.Rand are exactly the policy, and the New* constructors BUILD
// the seeded stream from an explicit seed — they are how determinism is
// achieved, not how it is lost.
func sourceName(fn *types.Func) (name string, global bool) {
	if fn == nil || fn.Pkg() == nil {
		return "", false
	}
	path := fn.Pkg().Path()
	if wallClockFuncs[path][fn.Name()] {
		return path + "." + fn.Name(), false
	}
	if isRandPath(path) && fn.Type().(*types.Signature).Recv() == nil && !strings.HasPrefix(fn.Name(), "New") {
		return "global math/rand." + fn.Name(), true
	}
	return "", false
}

// sourceFact is the root fact of a call of callee at pos when callee is
// a source (see sourceName), or nil.
func (t *taintChecker) sourceFact(callee *types.Func, pos token.Pos) *TaintedFact {
	if name, _ := sourceName(callee); name != "" {
		return &TaintedFact{Source: name, At: t.posOf(pos)}
	}
	return nil
}

// calleeFact looks up a TaintedFact for the callee, from this package's
// in-progress analysis or from a dependency's exported facts.
func (t *taintChecker) calleeFact(callee *types.Func) *TaintedFact {
	if callee == nil || t.isExempt(callee) {
		return nil
	}
	fact := new(TaintedFact)
	if t.pass.ImportObjectFact(callee, fact) {
		qual := callee.Name()
		if callee.Pkg() != nil && callee.Pkg() != t.pass.TypesPkg {
			qual = pkgBase(callee.Pkg().Path()) + "." + callee.Name()
		}
		return &TaintedFact{
			Source: fmt.Sprintf("%s (via %s)", fact.Source, qual),
			At:     fact.At,
		}
	}
	return nil
}

func (t *taintChecker) posOf(pos token.Pos) string {
	p := t.pass.Fset.Position(pos)
	return fmt.Sprintf("%s:%d", p.Filename[strings.LastIndex(p.Filename, "/")+1:], p.Line)
}

// deriveFact classifies one function: if a tainted value reaches a return
// statement or a store into non-local memory, the function earns a
// TaintedFact. Returns true when a new fact was exported this round.
func (t *taintChecker) deriveFact(fn fnInfo) bool {
	already := new(TaintedFact)
	if t.pass.ImportObjectFact(fn.obj, already) {
		return false
	}
	st := t.analyzeLocals(fn.decl.Body)
	var fact *TaintedFact
	st.escapes(fn.decl.Body, func(e ast.Expr, _ string) bool {
		fact = st.exprTaint(e)
		return fact == nil
	})
	if fact == nil {
		return false
	}
	t.pass.ExportObjectFact(fn.obj, fact)
	return true
}

// escapes calls visit, in source order, with every expression whose
// value leaves the activation — return results and right-hand sides
// stored into non-local memory — and how it leaves, until visit returns
// false. Arguments of exempt (observation) calls are not walked: what
// observation consumes does not escape.
func (st *taintState) escapes(body *ast.BlockStmt, visit func(e ast.Expr, how string) bool) {
	done := false
	ast.Inspect(body, func(n ast.Node) bool {
		if done {
			return false
		}
		switch nn := n.(type) {
		case *ast.CallExpr:
			if st.t.isExempt(calleeFuncOf(st.t.pass, nn)) {
				return false
			}
		case *ast.ReturnStmt:
			for _, res := range nn.Results {
				if done = !visit(res, "into a return value"); done {
					return false
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range nn.Lhs {
				if !st.nonLocalLValue(lhs) {
					continue
				}
				if done = !visit(assignedValue(nn, i), "into escaping memory"); done {
					return false
				}
			}
		}
		return true
	})
}

// nonLocalLValue reports whether assigning to expr stores outside the
// current activation: package variables, and anything reached through a
// selector, dereference or index (fields of receivers/parameters, heap
// objects handed in by callers).
func (st *taintState) nonLocalLValue(expr ast.Expr) bool {
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		obj := st.objOf(e)
		if v, ok := obj.(*types.Var); ok {
			return v.Parent() == v.Pkg().Scope() // package-level variable
		}
		return false
	case *ast.SelectorExpr, *ast.StarExpr, *ast.IndexExpr:
		return true
	}
	return false
}

// reportFunc reports every use of a tainted value inside a seeded-path
// function that is not consumed by observation: source calls and
// tainted-callee calls that feed anything except an exempt call or a
// plain local assignment, tainted locals that escape, order-dependent
// map ranges and racy selects. Global-stream calls and seeds are left to
// the file-level checks, which report them everywhere.
func (t *taintChecker) reportFunc(fn fnInfo) {
	body := fn.decl.Body
	st := t.analyzeLocals(body)
	ast.Inspect(body, func(n ast.Node) bool {
		switch nn := n.(type) {
		case *ast.CallExpr:
			callee := calleeFuncOf(t.pass, nn)
			if t.isExempt(callee) {
				return false // observation consumption: prune args
			}
			if isSeedConstructor(callee) {
				return false // the file-level seed check reports a tainted seed
			}
			if _, global := sourceName(callee); global {
				return true
			}
			fact := t.sourceFact(callee, nn.Pos())
			if fact == nil {
				fact = t.calleeFact(callee)
			}
			if fact != nil && !st.locallyAbsorbed(body, nn) {
				t.pass.Reportf(nn.Pos(),
					"nondeterministic value (%s, from %s) flows into the seeded optimizer path; "+
						"derive it from the injected seeded *rand.Rand or from configuration",
					fact.Source, fact.At)
			}
		case *ast.RangeStmt:
			t.reportMapRange(st, body, nn)
		case *ast.SelectStmt:
			t.reportSelect(nn)
		}
		return true
	})

	// Tainted locals escaping through returns and non-local stores.
	if len(st.vars) == 0 {
		return
	}
	seen := map[token.Pos]bool{}
	st.escapes(body, func(e ast.Expr, how string) bool {
		if id, fact := st.taintedIdent(e); id != nil && !seen[id.Pos()] {
			seen[id.Pos()] = true
			t.pass.Reportf(id.Pos(),
				"%q carries a nondeterministic value (%s, from %s) %s in the seeded optimizer path",
				id.Name, fact.Source, fact.At, how)
		}
		return true
	})
}

// locallyAbsorbed reports whether the call's value flows only into a
// plain local assignment (`t0 := time.Now()`): the taint is then tracked
// through the local and reported at its eventual escaping use instead,
// so observation-only patterns like `t0 := time.Now();
// hist.ObserveSince(t0)` stay silent.
func (st *taintState) locallyAbsorbed(body *ast.BlockStmt, call *ast.CallExpr) bool {
	absorbed := false
	ast.Inspect(body, func(n ast.Node) bool {
		if absorbed {
			return false
		}
		switch as := n.(type) {
		case *ast.AssignStmt:
			if slices.Contains(as.Rhs, ast.Expr(call)) {
				absorbed = true
				for _, lhs := range as.Lhs {
					_, isIdent := lhs.(*ast.Ident)
					absorbed = absorbed && isIdent && !st.nonLocalLValue(lhs)
				}
			}
		case *ast.ValueSpec:
			absorbed = slices.Contains(as.Values, ast.Expr(call))
		}
		return true
	})
	return absorbed
}

// taintedIdent returns the first identifier in expr bound to a tainted
// local, outside exempt calls, with its fact. Map-order taint is skipped:
// it is reported at the range statement itself, and re-flagging every
// escape of the slice would be noise.
func (st *taintState) taintedIdent(expr ast.Expr) (*ast.Ident, *TaintedFact) {
	var rid *ast.Ident
	var rfact *TaintedFact
	ast.Inspect(expr, func(n ast.Node) bool {
		if rid != nil {
			return false
		}
		switch nn := n.(type) {
		case *ast.CallExpr:
			return !st.t.isExempt(calleeFuncOf(st.t.pass, nn))
		case *ast.Ident:
			if f := st.vars[st.objOf(nn)]; f != nil && f.Source != mapOrderSource {
				rid, rfact = nn, f
			}
		}
		return true
	})
	return rid, rfact
}

// reportMapRange flags map iterations whose order reaches bytes: an
// unsorted outer append (checkpoint/snapshot serialization built from a
// map) or a direct write of loop-derived data through a serializer.
func (t *taintChecker) reportMapRange(st *taintState, body *ast.BlockStmt, r *ast.RangeStmt) {
	if !st.isMapRange(r) {
		return
	}
	if tgt := st.unsortedAppendTarget(body, r); tgt != nil {
		t.pass.Reportf(r.Pos(),
			"map iteration order is nondeterministic: %q accumulates it and is never sorted; "+
				"sort the slice (sort.* / slices.Sort*) before it reaches optimizer state or checkpoint bytes",
			tgt.Name())
		return
	}
	if call := st.serializingCall(r); call != nil {
		t.pass.Reportf(call.Pos(),
			"map iteration order is nondeterministic and this call serializes loop-dependent data; "+
				"iterate sorted keys so checkpoint/snapshot bytes are bit-identical")
	}
}

// serializerNames are method/function names that emit bytes in call
// order.
var serializerNames = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"Fprintf": true, "Fprint": true, "Fprintln": true,
	"Encode": true, "Marshal": true, "Sum": true, "Sum64": true, "Sum32": true,
}

// serializingCall finds a serializer call inside the loop body that
// references a loop variable.
func (st *taintState) serializingCall(r *ast.RangeStmt) *ast.CallExpr {
	loopVars := map[types.Object]bool{}
	for _, e := range []ast.Expr{r.Key, r.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if obj := st.objOf(id); obj != nil {
				loopVars[obj] = true
			}
		}
	}
	if len(loopVars) == 0 {
		return nil
	}
	var found *ast.CallExpr
	ast.Inspect(r.Body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name := ""
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.SelectorExpr:
			name = fun.Sel.Name
		case *ast.Ident:
			name = fun.Name
		}
		if !serializerNames[name] || st.t.isExempt(calleeFuncOf(st.t.pass, call)) {
			return true
		}
		uses := false
		ast.Inspect(call, func(m ast.Node) bool {
			if id, ok := m.(*ast.Ident); ok {
				if obj := st.objOf(id); obj != nil && loopVars[obj] {
					uses = true
				}
			}
			return !uses
		})
		if uses {
			found = call
		}
		return true
	})
	return found
}

// reportSelect flags selects that can resolve between two or more
// ready-able communications: the runtime picks uniformly at random, which
// is exactly the race the determinism contract forbids. Receives from a
// Done()-style cancellation channel and default cases are exempt — a
// cancellation check plus one real communication is the blessed pattern.
func (t *taintChecker) reportSelect(sel *ast.SelectStmt) {
	racy := 0
	for _, c := range sel.Body.List {
		comm, ok := c.(*ast.CommClause)
		if !ok || comm.Comm == nil {
			continue // default case
		}
		if isDoneRecv(comm.Comm) {
			continue
		}
		racy++
	}
	if racy >= 2 {
		t.pass.Reportf(sel.Pos(),
			"select with %d competing communications resolves nondeterministically in the seeded "+
				"optimizer path; sequence the channels or move the race outside the counted stream", racy)
	}
}

// isDoneRecv matches `case <-x.Done():` and `case <-done:` cancellation
// receives.
func isDoneRecv(stmt ast.Stmt) bool {
	var expr ast.Expr
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		expr = s.X
	case *ast.AssignStmt:
		if len(s.Rhs) == 1 {
			expr = s.Rhs[0]
		}
	}
	un, ok := ast.Unparen(expr).(*ast.UnaryExpr)
	if !ok || un.Op != token.ARROW {
		return false
	}
	switch x := ast.Unparen(un.X).(type) {
	case *ast.CallExpr:
		if sel, ok := x.Fun.(*ast.SelectorExpr); ok {
			return sel.Sel.Name == "Done"
		}
	case *ast.Ident:
		return strings.Contains(strings.ToLower(x.Name), "done") ||
			strings.Contains(strings.ToLower(x.Name), "cancel")
	}
	return false
}
