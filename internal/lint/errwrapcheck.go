package lint

import (
	"go/ast"
	"go/types"
	"strconv"

	"iddqsyn/internal/lint/analysis"
)

// ErrWrapCheck enforces error wrapping with %w: a fmt.Errorf whose
// arguments include an error formatted with %v, %s or %q builds a new
// error that hides the old one from errors.Is/errors.As. The repo's
// sentinel errors — core.ErrNonFinite, evolution.ErrCorruptCheckpoint,
// runctl.ErrCanceled — must survive every wrapping layer so callers can
// branch on them; a single %v in the chain silently breaks that contract.
//
// %T (printing the error's type) and %p are deliberate formatting, not
// wrapping, and are not flagged. Deliberately severing an error chain is
// rare enough to deserve an explicit //lint:ignore errwrapcheck with a
// reason.
var ErrWrapCheck = &analysis.Analyzer{
	Name: "errwrapcheck",
	Doc: "errors passed to fmt.Errorf must use %w, not %v/%s/%q, so sentinel errors " +
		"(ErrNonFinite, ErrCorruptCheckpoint) stay visible to errors.Is/As through every layer",
	Run: runErrWrapCheck,
}

func runErrWrapCheck(pass *analysis.Pass) (interface{}, error) {
	errIface := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	for _, f := range pass.Pkg.CheckedFiles {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isFmtErrorf(pass, call) || len(call.Args) < 2 {
				return true
			}
			lit, ok := ast.Unparen(call.Args[0]).(*ast.BasicLit)
			if !ok {
				return true // non-constant format: nothing to parse
			}
			format, err := strconv.Unquote(lit.Value)
			if err != nil {
				return true
			}
			verbs, ok := formatVerbs(format)
			if !ok || len(verbs) != len(call.Args)-1 {
				return true // indexed args or arg-count mismatch: stay quiet
			}
			for i, v := range verbs {
				if v == 'w' || v == 'T' || v == 'p' {
					continue
				}
				arg := call.Args[1+i]
				tv, ok := pass.TypesInfo.Types[arg]
				if !ok || tv.Type == nil {
					continue
				}
				if types.Implements(tv.Type, errIface) {
					pass.Reportf(arg.Pos(),
						"error formatted with %%%c loses its identity: use %%w so errors.Is/As can unwrap it "+
							"(or //lint:ignore errwrapcheck if severing the chain is intended)", v)
				}
			}
			return true
		})
	}
	return nil, nil
}

// isFmtErrorf reports whether the call is fmt.Errorf.
func isFmtErrorf(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || obj.Name() != "Errorf" {
		return false
	}
	return obj.Pkg() != nil && obj.Pkg().Path() == "fmt"
}

// formatVerbs extracts the argument-consuming verbs of a Printf format
// string in order, expanding '*' width/precision into their own pseudo
// verb '*'. Returns ok=false for explicit argument indexes ("%[1]v"),
// which the caller cannot map positionally.
func formatVerbs(format string) ([]byte, bool) {
	var verbs []byte
	for i := 0; i < len(format); i++ {
		if format[i] != '%' {
			continue
		}
		i++
		if i < len(format) && format[i] == '%' {
			continue // literal %%
		}
		// flags
		for i < len(format) {
			switch format[i] {
			case '+', '-', '#', ' ', '0':
				i++
				continue
			}
			break
		}
		// width / precision, each possibly '*'
		for pass := 0; pass < 2; pass++ {
			if i < len(format) && format[i] == '*' {
				verbs = append(verbs, '*')
				i++
			} else {
				for i < len(format) && format[i] >= '0' && format[i] <= '9' {
					i++
				}
			}
			if pass == 0 && i < len(format) && format[i] == '.' {
				i++
				continue
			}
			break
		}
		if i < len(format) && format[i] == '[' {
			return nil, false // explicit argument index
		}
		if i >= len(format) {
			break
		}
		verbs = append(verbs, format[i])
	}
	return verbs, true
}
