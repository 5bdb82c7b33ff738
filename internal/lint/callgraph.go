package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"iddqsyn/internal/lint/analysis"
)

// callGraph is one package's call graph, built once per type-check of
// the package (see callGraphOf) and read by every analyzer that follows
// calls: hotalloc propagates hotness along its edges, sharedstate
// propagates goroutine contexts along its call edges and judges its
// field accesses, lockorder reads its lock steps, and goleak and
// sharedstate read the one goroutine inventory.
type callGraph struct {
	// funcs are the package's function declarations with a body, in
	// source order; byObj indexes them.
	funcs []*fnNode
	byObj map[*types.Func]*fnNode
	// spawns is the goroutine inventory: the `go` statements of the
	// function bodies, in source order.
	spawns []SpawnSite
	// module holds the package and its in-module imports, transitively:
	// the code the lint run analyzes. Calls into any other package
	// (the standard library) are opaque.
	module map[*types.Package]bool
	// methods indexes the named types of the module packages that
	// declare methods by the names in their pointer method sets: the
	// candidates an interface call dispatches to.
	methods map[string][]*types.Named
}

// fnNode is one function's scan: its edges, its field accesses and its
// lock steps.
type fnNode struct {
	fnInfo
	edges    []callEdge
	accesses []rawAccess
	// steps are the lock acquisitions and direct, non-interface calls to
	// module functions, each with the lockset held before it, in walk
	// order: lockorder's input.
	steps []lockStep
	// firstSpawn is the position of the first `go` statement, or NoPos.
	// Accesses before it are ordered before everything the goroutine
	// does (the spawn is a happens-before edge), so they are exempt.
	firstSpawn token.Pos
}

// callEdge is one edge of the graph. Function literals are not edges:
// their bodies belong to the enclosing function and are scanned in
// place.
type callEdge struct {
	callee *types.Func
	kind   edgeKind
	// spawn is the `go` statement whose literal body makes the call, nil
	// for the function's own goroutine.
	spawn *ast.GoStmt
}

// edgeKind separates the edges every analyzer follows from the two kinds
// only hotalloc follows, which must not move sharedstate's goroutine
// contexts.
type edgeKind uint8

const (
	// edgeCall is a call of a module function: a static call, or an
	// interface call resolved to one of its module implementations.
	edgeCall edgeKind = iota
	// edgeSpawn is the callee of a named `go f()`: it runs on the
	// spawned goroutine, not on this one.
	edgeSpawn
	// edgeRef is a function the body names without calling it in the
	// module: a function or method value (it may be called by whatever
	// it is passed to), the interface method of a dynamic call, or a
	// static callee outside the module.
	edgeRef
)

// callGraphKey keys the call graph in analysis.Pass.Shared.
type callGraphKey struct{}

// callGraphOf returns the package's call graph, built by the first
// analyzer that asks for it in this lint run and shared with the rest.
func callGraphOf(pass *analysis.Pass) *callGraph {
	return pass.Shared(callGraphKey{}, func() interface{} { return buildCallGraph(pass) }).(*callGraph)
}

func buildCallGraph(pass *analysis.Pass) *callGraph {
	g := &callGraph{
		byObj:   map[*types.Func]*fnNode{},
		module:  map[*types.Package]bool{},
		methods: map[string][]*types.Named{},
	}
	var visit func(p *analysis.Package)
	visit = func(p *analysis.Package) {
		if g.module[p.Types] {
			return
		}
		g.module[p.Types] = true
		g.indexMethods(p.Types)
		for _, imp := range p.Imports {
			visit(imp)
		}
	}
	visit(pass.Pkg)
	for _, fn := range packageFuncs(pass) {
		n := scanFunc(pass, g, fn)
		g.funcs = append(g.funcs, n)
		g.byObj[fn.obj] = n
	}
	return g
}

// indexMethods adds the named types of pkg that declare methods to the
// method-name index.
func (g *callGraph) indexMethods(pkg *types.Package) {
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok || named.NumMethods() == 0 {
			continue
		}
		ms := types.NewMethodSet(types.NewPointer(named))
		for i := 0; i < ms.Len(); i++ {
			m := ms.At(i).Obj().Name()
			g.methods[m] = append(g.methods[m], named)
		}
	}
}

// implementations returns the module methods an interface-method call
// may dispatch to. Implementations in packages that depend on the
// analyzed one are invisible — the conservative gap of a graph built
// per package — which is acceptable because hot roots and spawned
// goroutines reach the interfaces they call through their own imports.
func (g *callGraph) implementations(ifaceMethod *types.Func) []*types.Func {
	iface, _ := ifaceMethod.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
	if iface == nil {
		return nil
	}
	var out []*types.Func
	for _, named := range g.methods[ifaceMethod.Name()] {
		if !types.Implements(named, iface) && !types.Implements(types.NewPointer(named), iface) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(named), true, ifaceMethod.Pkg(), ifaceMethod.Name())
		if m, ok := obj.(*types.Func); ok {
			out = append(out, m)
		}
	}
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
