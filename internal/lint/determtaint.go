package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"iddqsyn/internal/lint/analysis"
)

// DetermTaint statically enforces the determinism contract that
// TestChaosSoak checks dynamically: seeded (μ, λ, χ)-runs must be
// bit-identical across resume, observation and chaos injection, so no
// nondeterministic value may flow into the seeded optimizer path or into
// checkpoint/snapshot bytes.
//
// Taint sources:
//
//   - the wall clock and process identity: time.Now, time.Since,
//     os.Getpid;
//   - the process-global math/rand stream (top-level rand functions —
//     norandglobal flags the call site itself; determtaint additionally
//     tracks the value as it flows through locals, returns and other
//     packages);
//   - map iteration order: a `for range` over a map that appends to an
//     outer slice (unless that slice is subsequently sorted in the same
//     function) or writes loop-derived data through a serializer;
//   - select races: a select with two or more ready-able communication
//     cases (receives on <-ctx.Done()-style cancellation channels are
//     exempt) resolves nondeterministically.
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
		"path or checkpoint bytes; the statically checked form of the bit-identical-resume invariant",
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

// wallClockFuncs are the per-package nondeterministic value sources.
var wallClockFuncs = map[string]map[string]string{
	"time": {"Now": "time.Now", "Since": "time.Since"},
	"os":   {"Getpid": "os.Getpid"},
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
	// Reporting pass: only functions on the seeded optimizer path.
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
		if pkg := named.Obj().Pkg(); pkg != nil &&
			(pkg.Path() == "math/rand" || pkg.Path() == "math/rand/v2") {
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
func (t *taintChecker) analyzeLocals(fn fnInfo) *taintState {
	st := &taintState{
		t:        t,
		vars:     map[types.Object]*TaintedFact{},
		cleansed: map[types.Object]bool{},
	}
	for changed := true; changed; {
		changed = false
		ast.Inspect(fn.decl.Body, func(n ast.Node) bool {
			switch nn := n.(type) {
			case *ast.AssignStmt:
				if len(nn.Rhs) == 1 && len(nn.Lhs) >= 1 {
					if fact := st.exprTaint(nn.Rhs[0]); fact != nil {
						for _, lhs := range nn.Lhs {
							if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" {
								if st.setVar(st.objOf(id), fact) {
									changed = true
								}
							}
						}
					}
				} else {
					for i := range nn.Rhs {
						if i >= len(nn.Lhs) {
							break
						}
						if fact := st.exprTaint(nn.Rhs[i]); fact != nil {
							if id, ok := nn.Lhs[i].(*ast.Ident); ok && id.Name != "_" {
								if st.setVar(st.objOf(id), fact) {
									changed = true
								}
							}
						}
					}
				}
			case *ast.ValueSpec:
				for i, v := range nn.Values {
					if i >= len(nn.Names) {
						break
					}
					if fact := st.exprTaint(v); fact != nil {
						if st.setVar(t.pass.TypesInfo.Defs[nn.Names[i]], fact) {
							changed = true
						}
					}
				}
			case *ast.RangeStmt:
				if st.isMapRange(nn) {
					if tgt := st.unsortedAppendTarget(fn.decl.Body, nn); tgt != nil {
						fact := &TaintedFact{
							Source: mapOrderSource,
							At:     st.t.posOf(nn.Pos()),
						}
						if st.setVar(tgt, fact) {
							changed = true
						}
					}
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

// sourceFact classifies a callee as a primary nondeterminism source.
func (t *taintChecker) sourceFact(callee *types.Func, pos token.Pos) *TaintedFact {
	if callee == nil || callee.Pkg() == nil {
		return nil
	}
	path := callee.Pkg().Path()
	if m := wallClockFuncs[path]; m != nil {
		if desc, ok := m[callee.Name()]; ok {
			return &TaintedFact{Source: desc, At: t.posOf(pos)}
		}
	}
	if path == "math/rand" || path == "math/rand/v2" {
		// Package-level stream functions only: methods on an injected
		// *rand.Rand are exactly the policy, and the New*/NewSource
		// constructors BUILD the seeded stream from an explicit seed —
		// they are how determinism is achieved, not how it is lost.
		if callee.Type().(*types.Signature).Recv() == nil && !strings.HasPrefix(callee.Name(), "New") {
			return &TaintedFact{Source: "global math/rand." + callee.Name(), At: t.posOf(pos)}
		}
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
	st := t.analyzeLocals(fn)
	var fact *TaintedFact
	ast.Inspect(fn.decl.Body, func(n ast.Node) bool {
		if fact != nil {
			return false
		}
		switch nn := n.(type) {
		case *ast.ReturnStmt:
			for _, res := range nn.Results {
				if f := st.exprTaint(res); f != nil {
					fact = f
					return false
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range nn.Lhs {
				if !st.nonLocalLValue(lhs) {
					continue
				}
				rhs := nn.Rhs[0]
				if len(nn.Rhs) == len(nn.Lhs) {
					rhs = nn.Rhs[i]
				}
				if f := st.exprTaint(rhs); f != nil {
					fact = f
					return false
				}
			}
		}
		return true
	})
	if fact == nil {
		return false
	}
	t.pass.ExportObjectFact(fn.obj, fact)
	return true
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
// plain local assignment, plus order-dependent map ranges and racy
// selects.
func (t *taintChecker) reportFunc(fn fnInfo) {
	st := t.analyzeLocals(fn)
	seen := map[token.Pos]bool{}

	var walk func(n ast.Node, path []ast.Node)
	walk = func(n ast.Node, path []ast.Node) {
		ast.Inspect(n, func(node ast.Node) bool {
			if node == nil {
				return false
			}
			switch nn := node.(type) {
			case *ast.CallExpr:
				callee := calleeFuncOf(t.pass, nn)
				if t.isExempt(callee) {
					return false // observation consumption: prune args
				}
				var fact *TaintedFact
				if f := t.sourceFact(callee, nn.Pos()); f != nil {
					fact = f
				} else if f := t.calleeFact(callee); f != nil {
					fact = f
				}
				if fact != nil && !seen[nn.Pos()] && !st.locallyAbsorbed(fn.decl.Body, nn) {
					seen[nn.Pos()] = true
					t.pass.Reportf(nn.Pos(),
						"nondeterministic value (%s, from %s) flows into the seeded optimizer path; "+
							"derive it from the injected seeded *rand.Rand or from configuration",
						fact.Source, fact.At)
				}
			case *ast.RangeStmt:
				t.reportMapRange(st, fn, nn)
			case *ast.SelectStmt:
				t.reportSelect(nn)
			}
			return true
		})
	}
	walk(fn.decl.Body, nil)

	// Tainted locals consumed outside exempt calls and local assignments.
	t.reportTaintedUses(st, fn)
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
			for _, rhs := range as.Rhs {
				if rhs == ast.Expr(call) {
					all := true
					for _, lhs := range as.Lhs {
						if _, ok := lhs.(*ast.Ident); !ok {
							all = false
						} else if st.nonLocalLValue(lhs) {
							all = false
						}
					}
					absorbed = all
				}
			}
		case *ast.ValueSpec:
			for _, v := range as.Values {
				if v == ast.Expr(call) {
					absorbed = true
				}
			}
		}
		return true
	})
	return absorbed
}

// reportTaintedUses flags identifiers bound to tainted locals wherever
// they escape: returns, non-local stores, arguments of non-exempt calls.
func (t *taintChecker) reportTaintedUses(st *taintState, fn fnInfo) {
	if len(st.vars) == 0 {
		return
	}
	seen := map[token.Pos]bool{}
	report := func(id *ast.Ident, fact *TaintedFact, how string) {
		if seen[id.Pos()] {
			return
		}
		seen[id.Pos()] = true
		t.pass.Reportf(id.Pos(),
			"%q carries a nondeterministic value (%s, from %s) %s in the seeded optimizer path",
			id.Name, fact.Source, fact.At, how)
	}
	taintedIn := func(expr ast.Expr) (*ast.Ident, *TaintedFact) {
		var rid *ast.Ident
		var rfact *TaintedFact
		ast.Inspect(expr, func(n ast.Node) bool {
			if rid != nil {
				return false
			}
			if call, ok := n.(*ast.CallExpr); ok && t.isExempt(calleeFuncOf(t.pass, call)) {
				return false
			}
			if id, ok := n.(*ast.Ident); ok {
				if obj := st.objOf(id); obj != nil {
					// Map-order taint is already reported at the range
					// statement itself; re-flagging every escape of the
					// slice would be noise.
					if f := st.vars[obj]; f != nil && f.Source != "map iteration order" {
						rid, rfact = id, f
					}
				}
			}
			return true
		})
		return rid, rfact
	}
	ast.Inspect(fn.decl.Body, func(n ast.Node) bool {
		switch nn := n.(type) {
		case *ast.CallExpr:
			if t.isExempt(calleeFuncOf(t.pass, nn)) {
				return false
			}
		case *ast.ReturnStmt:
			for _, res := range nn.Results {
				if id, f := taintedIn(res); id != nil {
					report(id, f, "into a return value")
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range nn.Lhs {
				if !st.nonLocalLValue(lhs) {
					continue
				}
				rhs := nn.Rhs[0]
				if len(nn.Rhs) == len(nn.Lhs) {
					rhs = nn.Rhs[i]
				}
				if id, f := taintedIn(rhs); id != nil {
					report(id, f, "into escaping memory")
				}
			}
		}
		return true
	})
}

// reportMapRange flags map iterations whose order reaches bytes: an
// unsorted outer append (checkpoint/snapshot serialization built from a
// map) or a direct write of loop-derived data through a serializer.
func (t *taintChecker) reportMapRange(st *taintState, fn fnInfo, r *ast.RangeStmt) {
	if !st.isMapRange(r) {
		return
	}
	if tgt := st.unsortedAppendTarget(fn.decl.Body, r); tgt != nil {
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
