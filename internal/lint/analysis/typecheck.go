package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/token"
	"go/types"
	"strings"
	"sync"
)

// stdImporter type-checks standard-library packages from source (the
// module has no third-party dependencies, so everything that is not
// in-module is stdlib). go/importer's source compiler caches each package
// after the first import; the process-wide singleton below makes that
// cache span every Program in the process — the whole stdlib is checked
// at most once per test binary or lint run. The importer is not safe for
// concurrent use, so stdMu serializes it; in-module packages are checked
// outside this lock and therefore still parallelize.
var (
	stdOnce sync.Once
	stdImp  types.Importer
	stdFset *token.FileSet
	stdMu   sync.Mutex
)

func stdImport(path string) (*types.Package, error) {
	stdOnce.Do(func() {
		stdFset = token.NewFileSet()
		stdImp = importer.ForCompiler(stdFset, "source", nil)
	})
	stdMu.Lock()
	defer stdMu.Unlock()
	return stdImp.Import(path)
}

// progImporter resolves imports while type-checking one package:
// in-module paths resolve to the already-checked *types.Package of the
// dependency (the runner guarantees dependencies complete first),
// everything else goes to the shared source importer.
type progImporter struct {
	prog *Program
}

func (pi progImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if dep := pi.prog.byPath[path]; dep != nil {
		if dep.Types == nil {
			return nil, fmt.Errorf("dependency %s not type-checked yet", path)
		}
		return dep.Types, nil
	}
	return stdImport(path)
}

// typeCheck checks one package's CheckedFiles, filling pkg.Types and
// pkg.TypesInfo. All dependencies must already be checked.
func (prog *Program) typeCheck(pkg *Package) error {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	var errs []error
	conf := types.Config{
		Importer: progImporter{prog},
		Error:    func(err error) { errs = append(errs, err) },
	}
	tpkg, err := conf.Check(pkg.Path, prog.Fset, pkg.CheckedFiles, info)
	if len(errs) > 0 {
		var sb strings.Builder
		for i, e := range errs {
			if i > 0 {
				sb.WriteString("\n\t")
			}
			sb.WriteString(e.Error())
			if i == 9 && len(errs) > 10 {
				fmt.Fprintf(&sb, "\n\t... and %d more", len(errs)-10)
				break
			}
		}
		return fmt.Errorf("lint: type-check %s failed:\n\t%s", pkg.Path, sb.String())
	}
	if err != nil {
		return fmt.Errorf("lint: type-check %s: %w", pkg.Path, err)
	}
	pkg.Types = tpkg
	pkg.TypesInfo = info
	pkg.sharedMu.Lock()
	pkg.shared = map[interface{}]interface{}{}
	pkg.sharedMu.Unlock()
	return nil
}
