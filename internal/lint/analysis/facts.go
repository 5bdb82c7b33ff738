package analysis

import (
	"fmt"
	"go/token"
	"go/types"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
)

// factStore is the Program-wide fact database. Keys pair the subject (a
// types.Object or *types.Package) with the fact's dynamic type, so
// distinct analyzers with distinct fact types never collide. Object
// identity works across packages because the whole Program shares one
// type-checked world: the *types.Func for evolution.Optimize seen while
// checking package evolution is the same pointer an importer's
// TypesInfo.Uses resolves to.
//
// The store is written while a package is analyzed and read while its
// dependents are analyzed; packages run concurrently, so every access
// takes the lock.
type factStore struct {
	mu  sync.RWMutex
	obj map[objFactKey]Fact
	pkg map[pkgFactKey]Fact
}

type objFactKey struct {
	obj types.Object
	t   reflect.Type
}

type pkgFactKey struct {
	pkg *types.Package
	t   reflect.Type
}

func newFactStore() *factStore {
	return &factStore{obj: map[objFactKey]Fact{}, pkg: map[pkgFactKey]Fact{}}
}

// validFactType panics unless the fact's type is declared by the
// analyzer and is a pointer (imports copy through the pointer).
func validFactType(a *Analyzer, fact Fact) {
	t := reflect.TypeOf(fact)
	if t == nil || t.Kind() != reflect.Ptr {
		//lint:ignore panicpolicy analyzer-author API misuse, caught in the suite's own tests
		panic(fmt.Sprintf("analysis: %s: fact %T must be a pointer to a struct", a.Name, fact))
	}
	for _, ft := range a.FactTypes {
		if reflect.TypeOf(ft) == t {
			return
		}
	}
	//lint:ignore panicpolicy analyzer-author API misuse, caught in the suite's own tests
	panic(fmt.Sprintf("analysis: %s exports fact %T not declared in FactTypes", a.Name, fact))
}

func (s *factStore) exportObject(a *Analyzer, obj types.Object, fact Fact) {
	validFactType(a, fact)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.obj[objFactKey{obj, reflect.TypeOf(fact)}] = fact
}

func (s *factStore) importObject(obj types.Object, fact Fact) bool {
	s.mu.RLock()
	stored, ok := s.obj[objFactKey{obj, reflect.TypeOf(fact)}]
	s.mu.RUnlock()
	if !ok {
		return false
	}
	reflect.ValueOf(fact).Elem().Set(reflect.ValueOf(stored).Elem())
	return true
}

func (s *factStore) exportPackage(a *Analyzer, pkg *types.Package, fact Fact) {
	validFactType(a, fact)
	if pkg == nil {
		//lint:ignore panicpolicy framework-internal sequencing bug, not a runtime condition
		panic("analysis: ExportPackageFact before type-check")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pkg[pkgFactKey{pkg, reflect.TypeOf(fact)}] = fact
}

func (s *factStore) importPackage(pkg *types.Package, fact Fact) bool {
	s.mu.RLock()
	stored, ok := s.pkg[pkgFactKey{pkg, reflect.TypeOf(fact)}]
	s.mu.RUnlock()
	if !ok {
		return false
	}
	reflect.ValueOf(fact).Elem().Set(reflect.ValueOf(stored).Elem())
	return true
}

// dump returns the final fact per (subject, fact type) as sorted
// "analyzer: subject: fact" lines, for -fact-debug. Only the stored
// value is printed, not the sequence of exports that produced it:
// merged facts (written by several dependents, in whatever order the
// parallel schedule runs them) print the same on every run. Subjects
// carry their declaration position (see objString), so every key prints
// on a line of its own.
func (s *factStore) dump(analyzers []*Analyzer, prog *Program) []string {
	owner := map[reflect.Type]string{}
	for _, a := range analyzers {
		for _, ft := range a.FactTypes {
			owner[reflect.TypeOf(ft)] = a.Name
		}
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.obj)+len(s.pkg))
	for k, f := range s.obj {
		out = append(out, fmt.Sprintf("%s: %s: %+v", owner[k.t], objString(k.obj, prog.fsetOf(k.obj.Pkg())), f))
	}
	for k, f := range s.pkg {
		out = append(out, fmt.Sprintf("%s: package %s: %+v", owner[k.t], k.pkg.Path(), f))
	}
	sort.Strings(out)
	return out
}

// objString names an object for the fact dump: a function by its full
// name ("(*pkg.T).M"), anything else by package path and name plus its
// declaration's file base name and line, so two fields of the same name
// in one package stay apart. fset is the FileSet the object's position
// belongs to (see Program.fsetOf).
func objString(obj types.Object, fset *token.FileSet) string {
	if fn, ok := obj.(*types.Func); ok {
		return fn.FullName()
	}
	name := obj.Name()
	if pkg := obj.Pkg(); pkg != nil {
		name = pkg.Path() + "." + name
	}
	if fset == nil || !obj.Pos().IsValid() {
		return name
	}
	pos := fset.Position(obj.Pos())
	return fmt.Sprintf("%s (%s:%d)", name, filepath.Base(pos.Filename), pos.Line)
}

// fsetOf returns the FileSet positioning the objects of pkg: the
// Program's own for its packages, the shared source importer's for the
// standard library (nil if it never ran).
func (prog *Program) fsetOf(pkg *types.Package) *token.FileSet {
	if pkg != nil {
		if p := prog.byPath[pkg.Path()]; p != nil && p.Types == pkg {
			return prog.Fset
		}
	}
	stdMu.Lock()
	defer stdMu.Unlock()
	return stdFset
}
