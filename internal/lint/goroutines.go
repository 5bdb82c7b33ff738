package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strconv"

	"iddqsyn/internal/lint/analysis"
)

// The goroutine inventory is the call graph's list of `go` statements
// (callGraph.spawns), collected by the same body scan as its edges. It
// feeds the concurrency analyzers: goleak consumes the Accounted
// classification (does the spawn have a visible stop path?), and
// sharedstate consumes the spawn topology (which functions run on which
// spawned goroutines, and whether a spawn site can produce more than one
// instance). Both analyzers seeing the identical site list is the point
// — a goroutine goleak can prove stoppable but sharedstate never saw (or
// vice versa) would be a hole between two checks that claim to cover
// the same code.

// SpawnSite is one `go` statement in a package's type-checked files.
type SpawnSite struct {
	// Go is the statement itself; Go.Pos() is the reporting position.
	Go *ast.GoStmt
	// Callee is the statically resolved spawned function (`go f(x)`,
	// `go s.run()`), nil for literals and unresolvable calls.
	Callee *types.Func
	// InLoop reports that the statement sits inside a for/range statement
	// of its enclosing function: the site can mint many goroutine
	// instances, which may race each other even with no other goroutine
	// in sight.
	InLoop bool
	// Accounted reports a visible stop path: a context, channel
	// operation, or WaitGroup in the spawned body, the call's arguments,
	// or the receiver (goleak's predicate).
	Accounted bool
}

// ID names the spawn site for diagnostics and facts: "file.go:line"
// using the position's base filename. Stable across machines because it
// carries no directory components.
func (s SpawnSite) ID(fset *token.FileSet) string {
	pos := fset.Position(s.Go.Pos())
	return filepath.Base(pos.Filename) + ":" + strconv.Itoa(pos.Line)
}

// goStmtAccounted reports whether the spawned goroutine has a visible
// lifecycle mechanism: in the function literal's body, in the call's
// arguments, or in the receiver/arguments of a named callee.
func goStmtAccounted(pass *analysis.Pass, g *ast.GoStmt) bool {
	// Arguments (and a method call's receiver) carrying a context, channel
	// or WaitGroup account for both literal and named spawns.
	for _, arg := range g.Call.Args {
		if exprCarriesStopPath(pass, arg) {
			return true
		}
	}
	switch fun := ast.Unparen(g.Call.Fun).(type) {
	case *ast.FuncLit:
		return bodyHasStopPath(pass, fun.Body)
	case *ast.SelectorExpr:
		// go s.run() — the receiver may hold the lifecycle (a struct with
		// a done channel or context). Conservative: a named receiver is
		// trusted only when its type visibly contains a stop mechanism.
		if tv, ok := pass.TypesInfo.Types[fun.X]; ok && typeCarriesStopPath(tv.Type, 0) {
			return true
		}
	}
	return false
}

// bodyHasStopPath scans a goroutine body for any lifecycle mechanism.
func bodyHasStopPath(pass *analysis.Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch nn := n.(type) {
		case *ast.SendStmt, *ast.SelectStmt:
			found = true
		case *ast.UnaryExpr:
			if nn.Op == token.ARROW {
				found = true
			}
		case *ast.RangeStmt:
			if tv, ok := pass.TypesInfo.Types[nn.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					found = true
				}
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(nn.Fun).(*ast.Ident); ok {
				if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok && b.Name() == "close" {
					found = true
				}
			}
			if sel, ok := ast.Unparen(nn.Fun).(*ast.SelectorExpr); ok {
				switch sel.Sel.Name {
				case "Done", "Wait":
					// wg.Done()/wg.Wait(), or ctx.Done() in a select.
					found = true
				}
			}
		case *ast.Ident:
			if obj := pass.TypesInfo.Uses[nn]; obj != nil && typeCarriesStopPath(obj.Type(), 0) {
				found = true
			}
		}
		return !found
	})
	return found
}

// exprCarriesStopPath reports whether an argument expression's type is a
// lifecycle carrier.
func exprCarriesStopPath(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	return typeCarriesStopPath(tv.Type, 0)
}

// typeCarriesStopPath reports whether t is a context.Context, a channel,
// a sync.WaitGroup, or a struct containing one of those (one level deep —
// the lifecycle must be near the surface to count as visible).
func typeCarriesStopPath(t types.Type, depth int) bool {
	if t == nil || depth > 1 {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		obj := named.Obj()
		if obj.Pkg() != nil {
			if obj.Pkg().Path() == "context" && obj.Name() == "Context" {
				return true
			}
			if obj.Pkg().Path() == "sync" && obj.Name() == "WaitGroup" {
				return true
			}
		}
	}
	switch u := t.Underlying().(type) {
	case *types.Chan:
		return true
	case *types.Interface:
		// context.Context resolved through an interface alias.
		return u.NumMethods() > 0 && hasMethod(u, "Deadline") && hasMethod(u, "Done")
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if typeCarriesStopPath(u.Field(i).Type(), depth+1) {
				return true
			}
		}
	}
	return false
}

func hasMethod(iface *types.Interface, name string) bool {
	for i := 0; i < iface.NumMethods(); i++ {
		if iface.Method(i).Name() == name {
			return true
		}
	}
	return false
}
