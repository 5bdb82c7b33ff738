package lint

import (
	"go/ast"
	"go/types"
	"strings"

	"iddqsyn/internal/lint/analysis"
)

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
func collectHotRoots(pass *analysis.Pass, funcs []fnInfo) []hotRoot {
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
			roots = append(roots, hotRoot{fn: fn, reason: reason})
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

// callees resolves the conservative static callee set of one function
// body: direct calls (functions and methods), interface-dispatch calls
// (resolved to every concrete implementation visible from the caller's
// package), and function values referenced without being called (they may
// be invoked by whatever they are passed to). Function literals are not
// edges — their bodies belong to the enclosing function and are walked
// in place by the caller's analysis.
func callees(pass *analysis.Pass, body ast.Node, impl *implIndex) []*types.Func {
	var out []*types.Func
	seen := map[*types.Func]bool{}
	add := func(fn *types.Func) {
		if fn != nil && !seen[fn] {
			seen[fn] = true
			out = append(out, fn)
		}
	}
	// Funs of direct calls, so bare references can be told apart.
	calledFuns := map[ast.Expr]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if ok {
			calledFuns[ast.Unparen(call.Fun)] = true
		}
		return true
	})
	ast.Inspect(body, func(n ast.Node) bool {
		switch nn := n.(type) {
		case *ast.CallExpr:
			callee := calleeFuncOf(pass, nn)
			if callee == nil {
				return true
			}
			if isInterfaceMethod(callee) {
				for _, m := range impl.implementations(callee) {
					add(m)
				}
				return true
			}
			add(callee)
		case *ast.Ident:
			if calledFuns[ast.Expr(nn)] {
				return true
			}
			if fn, ok := pass.TypesInfo.Uses[nn].(*types.Func); ok {
				add(fn) // function value escapes: assume it gets called
			}
		case *ast.SelectorExpr:
			if calledFuns[ast.Expr(nn)] {
				return true
			}
			if sel, ok := pass.TypesInfo.Selections[nn]; ok {
				if fn, ok := sel.Obj().(*types.Func); ok {
					add(fn) // method value: assume it gets called
				}
			}
		}
		return true
	})
	return out
}

// calleeFuncOf resolves a call's static callee as a *types.Func (nil for
// builtins, conversions and calls of function-typed values).
func calleeFuncOf(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := pass.TypesInfo.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := pass.TypesInfo.Selections[fun]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				return fn
			}
		}
		if fn, ok := pass.TypesInfo.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// isInterfaceMethod reports whether fn is declared on an interface type.
func isInterfaceMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	_, isIface := sig.Recv().Type().Underlying().(*types.Interface)
	return isIface
}

// implIndex resolves interface methods to the concrete methods
// implementing them, over every named type visible from the analyzed
// package: its own scope plus the scopes of its (transitively) imported
// packages. Implementations defined in packages that *depend on* the
// analyzed one are invisible — the conservative gap of a non-whole-program
// call graph — which is acceptable here because hot roots and the
// interfaces they dispatch through live in the same import subtree.
type implIndex struct {
	named []*types.Named
	cache map[*types.Func][]*types.Func
}

func newImplIndex(pkg *types.Package) *implIndex {
	idx := &implIndex{cache: map[*types.Func][]*types.Func{}}
	seen := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if p == nil || seen[p] {
			return
		}
		seen[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok && named.NumMethods() > 0 {
				idx.named = append(idx.named, named)
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	visit(pkg)
	return idx
}

// implementations returns the concrete methods that an interface-method
// call could dispatch to.
func (idx *implIndex) implementations(ifaceMethod *types.Func) []*types.Func {
	if ms, ok := idx.cache[ifaceMethod]; ok {
		return ms
	}
	iface, _ := ifaceMethod.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
	var out []*types.Func
	if iface != nil {
		for _, named := range idx.named {
			if !types.Implements(named, iface) && !types.Implements(types.NewPointer(named), iface) {
				continue
			}
			obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(named), true, ifaceMethod.Pkg(), ifaceMethod.Name())
			if m, ok := obj.(*types.Func); ok {
				out = append(out, m)
			}
		}
	}
	idx.cache[ifaceMethod] = out
	return out
}

// fnInfo pairs a declaration with its object.
type fnInfo struct {
	decl *ast.FuncDecl
	obj  *types.Func
}

// packageFuncs lists every function declaration with a body in the
// package's type-checked files.
func packageFuncs(pass *analysis.Pass) []fnInfo {
	var out []fnInfo
	for _, f := range pass.Pkg.CheckedFiles {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if obj == nil {
				continue
			}
			out = append(out, fnInfo{fd, obj})
		}
	}
	return out
}
