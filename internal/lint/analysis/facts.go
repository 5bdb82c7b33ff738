package analysis

import (
	"fmt"
	"go/types"
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
	// byAnalyzer records which analyzer exported each fact, for
	// -fact-debug output.
	exported []exportRecord
}

type objFactKey struct {
	obj types.Object
	t   reflect.Type
}

type pkgFactKey struct {
	pkg *types.Package
	t   reflect.Type
}

type exportRecord struct {
	Analyzer string
	Subject  string // object or package description
	Fact     Fact
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
	s.exported = append(s.exported, exportRecord{a.Name, objString(obj), fact})
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
	s.exported = append(s.exported, exportRecord{a.Name, "package " + pkg.Path(), fact})
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

// dump returns every exported fact as "analyzer: subject: fact" lines,
// sorted, for -fact-debug.
func (s *factStore) dump() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.exported))
	for _, r := range s.exported {
		out = append(out, fmt.Sprintf("%s: %s: %+v", r.Analyzer, r.Subject, r.Fact))
	}
	sort.Strings(out)
	return out
}

func objString(obj types.Object) string {
	if pkg := obj.Pkg(); pkg != nil {
		return pkg.Path() + "." + obj.Name()
	}
	return obj.Name()
}
