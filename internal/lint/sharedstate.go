package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"

	"iddqsyn/internal/lint/analysis"
)

// SharedState is the whole-program lockset analysis: it computes which
// struct fields and package-level variables are reachable from more than
// one goroutine and, for every access to such a field, the set of
// structural mutexes held at the access — reporting fields whose locksets
// are *inconsistent*:
//
//   - accessed both under a guard and bare (a lock that only sometimes
//     protects a field protects nothing);
//   - guarded by disjoint locksets on different paths (two locks that
//     never coincide order nothing);
//   - accessed both through sync/atomic and as a plain load/store (the
//     atomic half promises lock-free readers the plain half breaks).
//
// Everything the analyzer reads about code comes from the package's
// call graph (callGraphOf): each function's field accesses with their
// locksets, its call edges (interface calls resolved to the module's
// implementations), and the goroutine inventory goleak reads too. `go`
// statements seed goroutine contexts — one per spawn site, loop-spawned
// sites marked multi-instance because their goroutines race each other
// — and the contexts propagate along the call edges, across package
// boundaries via SpawnedFact in the reverse (dependents-first) wave, so
// a serve-layer `go` statement marks the obs helper it ultimately calls.
// Locksets use structural mutex ids ("pkg.Type.mu"), and lockorder reads
// the same scan's lock steps, so the two analyzers name and track the
// same lock the same way.
//
// Consistently-unguarded shared fields are deliberately not reported:
// channel handoffs, WaitGroup joins and start-before-spawn ordering are
// real synchronization the analyzer cannot see, and flagging every such
// field would bury the findings that matter. The analyzer's finding is
// *inconsistency* — the cases where the code itself disagrees about
// what protects the field. Accesses before the first `go` statement of
// the spawning function are exempt (ordered by the spawn), as are
// constructor-local values and *Locked functions (the caller holds the
// guard).
//
// Findings are reported at the field declaration, one per field, so one
// reasoned //lint:ignore sharedstate <reason> documents the field's
// actual synchronization story. The dynamic cross-check (RaceCheck)
// re-attributes every GORACE report from the race soaks to these
// fields' access sites: a dynamic race with no static candidate means
// this model has a hole.
//
// The code can also state the discipline: a struct field or package
// variable declared with a comment
//
//	count int // guarded by mu
//
// must be accessed with a mutex named mu held — a lockset entry whose
// structural id ends in ".mu". This check runs on every in-package
// access, whether or not the field is shared, before the happens-before
// exemption, and reports at the access itself. The lockset is
// flow-sensitive: an access after mu.Unlock() is bare even when the
// function locked mu earlier. *Locked functions, constructor-local
// values and sync-typed fields keep their exemptions.
var SharedState = &analysis.Analyzer{
	Name: "sharedstate",
	Doc: "lockset analysis over goroutine-shared fields and variables: flag fields accessed " +
		"both under and outside a guard, under disjoint locks, or mixing sync/atomic " +
		"with plain access, and `// guarded by mu` fields accessed without mu held — " +
		"the data-race shapes the race detector needs luck to catch",
	FactTypes: []analysis.Fact{(*SpawnedFact)(nil), (*FieldAccessesFact)(nil)},
	Direction: analysis.Reverse,
	Run:       runSharedState,
}

// MainContext is the context id of the original (non-spawned) goroutine.
const MainContext = "main"

// SpawnedFact marks a function of an imported package as running on a
// spawned goroutine: a dependent package `go`-spawns it directly, calls
// it from a spawned goroutine, or calls it from inside a spawned
// function literal. Exported during the reverse wave, so the defining
// package (analyzed after all its dependents) sees every spawn.
type SpawnedFact struct {
	Sites []string // sorted spawn-site ids ("file.go:line")
	Multi bool     // some spawn site can mint multiple instances
}

// AFact marks SpawnedFact as a framework fact.
func (*SpawnedFact) AFact() {}

func (f *SpawnedFact) String() string {
	s := "spawned at " + strings.Join(f.Sites, ", ")
	if f.Multi {
		s += " (multi)"
	}
	return s
}

// AccessSite is one field access with its computed lockset and
// goroutine contexts. Sites cross package boundaries inside
// FieldAccessesFact and feed the dynamic race cross-check, so they
// carry positions as data rather than token.Pos.
type AccessSite struct {
	File      string // absolute path of the accessing file
	Line      int
	Func      string   // enclosing function name ("" for package init exprs)
	FuncStart int      // enclosing function body line range, for
	FuncEnd   int      // re-attributing dynamic race frames
	Contexts  []string // sorted goroutine contexts ("main" and/or spawn ids)
	Multi     bool     // some context is multi-instance
	Locks     []string // sorted structural mutex ids held at the access
	Atomic    bool     // access through a sync/atomic call
	Write     bool
}

// FieldAccessesFact accumulates the access sites a field collects in
// packages other than its own: dependents run first in the reverse
// wave and merge their sites in; the defining package folds the fact
// into its local sites before judging consistency.
type FieldAccessesFact struct {
	Sites []AccessSite
}

// AFact marks FieldAccessesFact as a framework fact.
func (*FieldAccessesFact) AFact() {}

func (f *FieldAccessesFact) String() string {
	return fmt.Sprintf("%d external access site(s)", len(f.Sites))
}

// SharedField is one field the analyzer flagged, with every access site
// it saw — the static candidate set the dynamic race cross-check
// attributes GORACE reports against. Fields suppressed by an ignore
// directive still appear here: an *explicitly ignored* finding is a
// legal attribution target, an unmodeled race is not.
type SharedField struct {
	Field string // structural id, e.g. "serve.job.phase"
	File  string // declaring file (absolute)
	Line  int    // declaration line
	Kinds []string
	Sites []AccessSite
}

// SharedStateResult is runSharedState's per-package return value,
// collected by RaceCheck through analysis.Options.OnResult.
type SharedStateResult struct {
	Pkg    string
	Fields []SharedField
}

// sharedFactMu serializes the read-merge-write fact updates: sibling
// dependents of one package analyze concurrently, and both may fold
// sites into the same field's fact.
var sharedFactMu sync.Mutex

// Finding kinds.
const (
	KindGuardGap  = "guarded+bare"
	KindDisjoint  = "disjoint-locks"
	KindAtomicMix = "atomic+plain"
)

func runSharedState(pass *analysis.Pass) (interface{}, error) {
	g := callGraphOf(pass)
	if len(g.funcs) == 0 {
		return &SharedStateResult{Pkg: pass.Pkg.Path}, nil
	}
	spawnIDs := make(map[*ast.GoStmt]string, len(g.spawns))
	for _, sp := range g.spawns {
		spawnIDs[sp.Go] = sp.ID(pass.Fset)
	}
	ctxs, multi := computeContexts(pass, g, spawnIDs)
	guards := collectGuards(pass)

	// Resolve every raw access into an AccessSite tagged with the
	// goroutine contexts its enclosing scope runs in.
	accesses := map[*types.Var][]AccessSite{}
	record := func(field *types.Var, site AccessSite) {
		accesses[field] = append(accesses[field], site)
	}
	for _, fn := range g.funcs {
		fnCtx := sortedKeys(ctxs[fn.obj])
		if len(fnCtx) == 0 {
			fnCtx = []string{MainContext}
		}
		fnMulti := anyMulti(ctxs[fn.obj], multi)
		for _, ra := range fn.accesses {
			if guard, ok := guards[ra.field]; ok && !holds(ra.locks, guard) {
				pass.Reportf(ra.pos, "%q is guarded by %q (see its declaration) but %s is not held here; "+
					"acquire %s.Lock/RLock first or use a *Locked accessor", ra.field.Name(), guard, guard, guard)
			}
			if !g.module[ra.field.Pkg()] {
				continue // a field outside the module: no pass reads its sites
			}
			if ra.spawn == nil && fn.firstSpawn != token.NoPos && ra.pos < fn.firstSpawn &&
				len(fnCtx) == 1 && fnCtx[0] == MainContext && !fnMulti {
				// Happens-before exemption: an access in the spawning
				// function before its first `go` statement is ordered
				// before everything the spawned goroutines do — the spawn
				// itself is the synchronization.
				continue
			}
			site := ra.site(pass, fn.fnInfo)
			if ra.spawn != nil {
				// Inside a `go func(){...}` literal: the body runs only on
				// that spawn's goroutine. The literal races itself when the
				// spawn sits in a loop or the spawner runs concurrently.
				id := spawnIDs[ra.spawn]
				site.Contexts = []string{id}
				site.Multi = multi[id] || len(fnCtx) > 1 || fnMulti
			} else {
				site.Contexts = fnCtx
				site.Multi = fnMulti
			}
			record(ra.field, site)
		}
	}

	// Fields declared elsewhere: fold this package's sites into the
	// field's fact for its defining package (which runs later in the
	// reverse wave) and take no further part.
	res := &SharedStateResult{Pkg: pass.Pkg.Path}
	fieldObjs := make([]*types.Var, 0, len(accesses))
	for field := range accesses {
		fieldObjs = append(fieldObjs, field)
	}
	sort.Slice(fieldObjs, func(i, j int) bool { return fieldObjs[i].Pos() < fieldObjs[j].Pos() })
	for _, field := range fieldObjs {
		if field.Pkg() != pass.TypesPkg {
			sharedFactMu.Lock()
			merged := new(FieldAccessesFact)
			pass.ImportObjectFact(field, merged)
			merged.Sites = append(merged.Sites, accesses[field]...)
			sortSites(merged.Sites)
			pass.ExportObjectFact(field, merged)
			sharedFactMu.Unlock()
			continue
		}
		sites := accesses[field]
		ext := new(FieldAccessesFact)
		if pass.ImportObjectFact(field, ext) {
			sites = append(sites, ext.Sites...)
		}
		sortSites(sites)
		kinds := judgeField(sites)
		if len(kinds) == 0 {
			continue
		}
		declPos := pass.Fset.Position(field.Pos())
		id := fieldID(pass, field)
		res.Fields = append(res.Fields, SharedField{
			Field: id, File: declPos.Filename, Line: declPos.Line,
			Kinds: kinds, Sites: sites,
		})
		pass.Reportf(field.Pos(), "%s", fieldMessage(id, kinds, sites))
	}
	return res, nil
}

// guardedByRE anchors the annotation to the start of a comment line (or
// the start of a sentence), so prose that merely *mentions* the
// convention does not register as an annotation.
var guardedByRE = regexp.MustCompile(`(?m)(?:^|\. )guarded by ([A-Za-z_][A-Za-z0-9_]*)`)

// collectGuards maps the package's guarded objects (struct fields and
// package-level variables) to the name of their guarding mutex.
func collectGuards(pass *analysis.Pass) map[*types.Var]string {
	guards := map[*types.Var]string{}
	add := func(names []*ast.Ident, guard string) {
		if guard == "" {
			return
		}
		for _, name := range names {
			if v, ok := pass.TypesInfo.Defs[name].(*types.Var); ok {
				guards[v] = guard
			}
		}
	}
	for _, f := range pass.Pkg.CheckedFiles {
		ast.Inspect(f, func(n ast.Node) bool {
			switch nn := n.(type) {
			case *ast.StructType:
				for _, field := range nn.Fields.List {
					add(field.Names, guardAnnotation(field.Doc, field.Comment))
				}
			case *ast.GenDecl:
				for _, spec := range nn.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					guard := guardAnnotation(vs.Doc, vs.Comment)
					if guard == "" && len(nn.Specs) == 1 {
						guard = guardAnnotation(nn.Doc, nil)
					}
					if v, ok := pass.TypesInfo.Defs[vs.Names[0]].(*types.Var); ok && v.Parent() == pass.TypesPkg.Scope() {
						add(vs.Names, guard)
					}
				}
			}
			return true
		})
	}
	return guards
}

func guardAnnotation(groups ...*ast.CommentGroup) string {
	for _, g := range groups {
		if g == nil {
			continue
		}
		if m := guardedByRE.FindStringSubmatch(g.Text()); m != nil {
			return m[1]
		}
	}
	return ""
}

// holds reports whether a sorted lockset holds a mutex named guard.
func holds(locks []string, guard string) bool {
	for _, l := range locks {
		if strings.HasSuffix(l, "."+guard) {
			return true
		}
	}
	return false
}

// judgeField decides whether a field's access sites are inconsistent.
// Preconditions for any finding: the field is reachable from more than
// one goroutine (≥2 distinct contexts, or a multi-instance context) and
// at least one access writes.
func judgeField(sites []AccessSite) []string {
	ctxSet := map[string]bool{}
	sharedByMulti := false
	hasWrite := false
	var atomics, bare, guarded []AccessSite
	for _, s := range sites {
		for _, c := range s.Contexts {
			ctxSet[c] = true
		}
		sharedByMulti = sharedByMulti || s.Multi
		hasWrite = hasWrite || s.Write
		switch {
		case s.Atomic:
			atomics = append(atomics, s)
		case len(s.Locks) == 0:
			bare = append(bare, s)
		default:
			guarded = append(guarded, s)
		}
	}
	if (!sharedByMulti && len(ctxSet) < 2) || !hasWrite {
		return nil
	}
	var kinds []string
	if len(guarded) > 0 && len(bare) > 0 {
		kinds = append(kinds, KindGuardGap)
	}
	if len(bare) == 0 && len(atomics) == 0 && len(guarded) > 1 && lockIntersection(guarded) == 0 {
		kinds = append(kinds, KindDisjoint)
	}
	if len(atomics) > 0 && len(bare)+len(guarded) > 0 {
		kinds = append(kinds, KindAtomicMix)
	}
	return kinds
}

// lockIntersection counts the mutexes held at *every* guarded site.
func lockIntersection(guarded []AccessSite) int {
	common := map[string]int{}
	for _, s := range guarded {
		for _, l := range s.Locks {
			common[l]++
		}
	}
	n := 0
	for _, c := range common {
		if c == len(guarded) {
			n++
		}
	}
	return n
}

// fieldMessage renders the one-per-field diagnostic, naming a concrete
// conflicting pair per kind so the report is actionable without rerun.
func fieldMessage(id string, kinds []string, sites []AccessSite) string {
	var b strings.Builder
	fmt.Fprintf(&b, "field %s is shared across goroutines with inconsistent locksets: ", id)
	var parts []string
	for _, k := range kinds {
		switch k {
		case KindGuardGap:
			g := firstWhere(sites, func(s AccessSite) bool { return !s.Atomic && len(s.Locks) > 0 })
			u := firstWhere(sites, func(s AccessSite) bool { return !s.Atomic && len(s.Locks) == 0 })
			parts = append(parts, fmt.Sprintf("guarded by %s at %s but bare at %s",
				strings.Join(g.Locks, "+"), siteRef(g), siteRef(u)))
		case KindDisjoint:
			a := sites[0]
			var c AccessSite
			for _, s := range sites[1:] {
				if len(s.Locks) > 0 && disjointLocks(a.Locks, s.Locks) {
					c = s
					break
				}
			}
			parts = append(parts, fmt.Sprintf("guarded by disjoint locks %s at %s vs %s at %s",
				strings.Join(a.Locks, "+"), siteRef(a), strings.Join(c.Locks, "+"), siteRef(c)))
		case KindAtomicMix:
			at := firstWhere(sites, func(s AccessSite) bool { return s.Atomic })
			pl := firstWhere(sites, func(s AccessSite) bool { return !s.Atomic })
			parts = append(parts, fmt.Sprintf("atomic at %s but plain at %s",
				siteRef(at), siteRef(pl)))
		}
	}
	b.WriteString(strings.Join(parts, "; "))
	b.WriteString(" — every cross-goroutine access needs one consistent discipline, " +
		"or justify with //lint:ignore sharedstate <reason>")
	return b.String()
}

func firstWhere(sites []AccessSite, ok func(AccessSite) bool) AccessSite {
	for _, s := range sites {
		if ok(s) {
			return s
		}
	}
	return AccessSite{}
}

func disjointLocks(a, b []string) bool {
	set := map[string]bool{}
	for _, l := range a {
		set[l] = true
	}
	for _, l := range b {
		if set[l] {
			return false
		}
	}
	return true
}

func siteRef(s AccessSite) string {
	ref := filepath.Base(s.File) + ":" + fmt.Sprint(s.Line)
	if s.Func != "" {
		ref += " (" + s.Func + ")"
	}
	return ref
}

// fieldID names a field structurally, matching lockorder's mutex ids:
// "pkg.Type.field".
func fieldID(pass *analysis.Pass, field *types.Var) string {
	base := pkgBase(pass.Pkg.Path)
	// Find the named type owning the field, if any, by scanning the
	// package scope: struct fields do not link back to their parent.
	scope := pass.TypesPkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i) == field {
				return base + "." + tn.Name() + "." + field.Name()
			}
		}
	}
	return base + "." + field.Name()
}

func sortSites(sites []AccessSite) {
	sort.Slice(sites, func(i, j int) bool {
		if sites[i].File != sites[j].File {
			return sites[i].File < sites[j].File
		}
		return sites[i].Line < sites[j].Line
	})
}

func sortedKeys(set map[string]bool) []string {
	if len(set) == 0 {
		return nil
	}
	out := make([]string, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

func anyMulti(set map[string]bool, multi map[string]bool) bool {
	for c := range set {
		if multi[c] {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------
// Per-function body scan: the call graph's nodes (see buildCallGraph).

// rawAccess is one field or package-variable access before context
// resolution.
type rawAccess struct {
	field  *types.Var
	pos    token.Pos
	locks  []string // sorted snapshot of the held set
	atomic bool
	write  bool
	spawn  *ast.GoStmt // non-nil: inside the `go` literal this statement spawns
}

func (ra rawAccess) site(pass *analysis.Pass, fn fnInfo) AccessSite {
	pos := pass.Fset.Position(ra.pos)
	start := pass.Fset.Position(fn.decl.Pos())
	end := pass.Fset.Position(fn.decl.End())
	return AccessSite{
		File: pos.Filename, Line: pos.Line,
		Func: fn.obj.Name(), FuncStart: start.Line, FuncEnd: end.Line,
		Locks: ra.locks, Atomic: ra.atomic, Write: ra.write,
	}
}

// lockStep is one lock acquisition (mutex set) or direct, non-interface
// call to an in-module function (callee set), with the structural
// mutexes held just before it.
type lockStep struct {
	pos    token.Pos
	mutex  string
	callee *types.Func
	held   []string
	inGo   bool // inside a `go` literal: runs on the spawned goroutine
}

// scanState carries the walk's mutable state.
type scanState struct {
	pass   *analysis.Pass
	g      *callGraph
	node   *fnNode
	writes map[ast.Node]bool // selector nodes in write position
	locked bool              // function inherits its guard (*Locked)
	spawn  *ast.GoStmt       // current go-literal scope (nil = main body)
	held   []string          // structural mutex ids currently held
	// inLoop: inside a for/range body, condition or post statement,
	// where one `go` statement can mint many goroutines.
	inLoop bool
}

// scanFunc walks one function body in source order, tracking the held
// lockset, and collects edges, accesses and lock steps.
func scanFunc(pass *analysis.Pass, g *callGraph, fn fnInfo) *fnNode {
	n := &fnNode{fnInfo: fn}
	st := &scanState{
		pass: pass, g: g, node: n,
		writes: map[ast.Node]bool{},
		locked: strings.HasSuffix(fn.obj.Name(), "Locked"),
	}
	st.prepass(fn.decl.Body)
	st.walk(fn.decl.Body)
	return n
}

// prepass classifies expression positions the main walk cannot judge
// from a single node: write targets.
func (st *scanState) prepass(body ast.Node) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch nn := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range nn.Lhs {
				st.markWrite(lhs)
			}
		case *ast.IncDecStmt:
			st.markWrite(nn.X)
		case *ast.UnaryExpr:
			if nn.Op == token.AND {
				// Address taken: someone may write through the pointer.
				// Atomic calls are recognized separately and recorded as
				// atomic accesses instead.
				st.markWrite(nn.X)
			}
		}
		return true
	})
}

func (st *scanState) markWrite(e ast.Expr) {
	e = ast.Unparen(e)
	if _, ok := e.(*ast.StarExpr); ok {
		return // *s.p = v writes through the pointer, reads the field itself
	}
	st.writes[e] = true
}

// walk is the main source-order traversal: a statement walker that
// tracks the held lockset with branch sensitivity where it matters. A
// purely linear scan would treat the ubiquitous early-exit idiom
//
//	mu.Lock()
//	if bad {
//		mu.Unlock()
//		return err
//	}
//	... // still under mu
//
// as unlocked after the if: the held set is therefore snapshotted
// around branches that cannot fall through (return/break/continue/
// panic) — their lock effects are local to the abandoned path. Switch
// and select cases are alternatives, not a sequence, so each is walked
// against the entry lockset.
func (st *scanState) walk(body *ast.BlockStmt) {
	for _, s := range body.List {
		st.stmt(s)
	}
}

func (st *scanState) stmt(s ast.Stmt) {
	switch nn := s.(type) {
	case *ast.BlockStmt:
		st.walk(nn)
	case *ast.LabeledStmt:
		st.stmt(nn.Stmt)
	case *ast.IfStmt:
		st.stmt(nn.Init)
		st.walkExprs(nn.Cond)
		st.branch(nn.Body)
		if nn.Else != nil {
			if blk, ok := nn.Else.(*ast.BlockStmt); ok {
				st.branch(blk)
			} else {
				st.stmt(nn.Else) // else-if chain
			}
		}
	case *ast.ForStmt:
		st.stmt(nn.Init)
		outer := st.inLoop
		st.inLoop = true
		st.walkExprs(nn.Cond)
		st.walk(nn.Body)
		st.stmt(nn.Post)
		st.inLoop = outer
	case *ast.RangeStmt:
		st.walkExprs(nn.X)
		outer := st.inLoop
		st.inLoop = true
		st.walkExprs(nn.Key)
		st.walkExprs(nn.Value)
		st.walk(nn.Body)
		st.inLoop = outer
	case *ast.SwitchStmt:
		st.stmt(nn.Init)
		st.walkExprs(nn.Tag)
		for _, c := range nn.Body.List {
			cc := c.(*ast.CaseClause)
			for _, e := range cc.List {
				st.walkExprs(e)
			}
			st.alt(cc.Body)
		}
	case *ast.TypeSwitchStmt:
		st.stmt(nn.Init)
		st.stmt(nn.Assign)
		for _, c := range nn.Body.List {
			cc := c.(*ast.CaseClause)
			st.alt(cc.Body)
		}
	case *ast.SelectStmt:
		for _, c := range nn.Body.List {
			cc := c.(*ast.CommClause)
			st.alt(append([]ast.Stmt{cc.Comm}, cc.Body...))
		}
	case *ast.DeferStmt:
		// A deferred unlock holds the mutex to function end; walk the
		// deferred call for accesses but ignore its unlocks.
		if recv, op, ok := mutexOp(st.pass, nn.Call); ok {
			st.callEdges(nn.Call, edgeCall)
			if op == "lock" {
				st.acquire(nn.Call.Pos(), mutexID(st.pass, recv))
			}
			st.access(recv, false)
			return
		}
		st.walkExprs(nn.Call)
	case *ast.GoStmt:
		st.goStmt(nn)
	default:
		if s != nil {
			st.walkExprs(s)
		}
	}
}

// branch walks one if-arm; when the arm cannot fall through, its
// lockset effects are discarded for the code after the if.
func (st *scanState) branch(body *ast.BlockStmt) {
	snap := st.snapshot()
	st.walk(body)
	if terminates(body.List) {
		st.restore(snap)
	}
}

// alt walks a switch/select alternative against the entry lockset.
func (st *scanState) alt(body []ast.Stmt) {
	snap := st.snapshot()
	for _, s := range body {
		st.stmt(s)
	}
	st.restore(snap)
}

func (st *scanState) snapshot() []string { return append([]string(nil), st.held...) }

func (st *scanState) restore(snap []string) { st.held = snap }

// terminates reports whether a statement list cannot fall through: it
// ends in a return, an unconditional transfer, a panic/exit call, or an
// if whose arms both terminate.
func terminates(list []ast.Stmt) bool {
	if len(list) == 0 {
		return false
	}
	switch last := list[len(list)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.BlockStmt:
		return terminates(last.List)
	case *ast.IfStmt:
		blk, ok := last.Else.(*ast.BlockStmt)
		return ok && terminates(last.Body.List) && terminates(blk.List)
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			switch fun := ast.Unparen(call.Fun).(type) {
			case *ast.Ident:
				return fun.Name == "panic"
			case *ast.SelectorExpr:
				switch fun.Sel.Name {
				case "Exit", "Goexit", "Fatal", "Fatalf":
					return true
				}
			}
		}
	}
	return false
}

// walkExprs walks a statement or expression subtree that contains no
// block structure of its own — except function literals, whose bodies
// are walked as nested scopes whose lockset effects stay local (a
// callback defined under the lock usually runs under it, e.g. a
// sort.Slice comparator, but its locks must not leak into the linear
// scan of the enclosing body).
func (st *scanState) walkExprs(n ast.Node) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch nn := n.(type) {
		case *ast.FuncLit:
			snap := st.snapshot()
			st.walk(nn.Body)
			st.restore(snap)
			return false
		case *ast.CallExpr:
			return st.call(nn)
		case *ast.SelectorExpr:
			st.ref(nn.Sel) // method value, method expression or pkg.F
			st.access(nn, true)
			return false
		case *ast.Ident:
			// A bare identifier names a package-level variable; the only
			// fields it can name are composite-literal keys, which build a
			// fresh value rather than access a shared one.
			if v := st.tracked(nn); v != nil && !v.IsField() {
				st.record(v, nn.Pos(), false, st.writes[nn])
			}
			st.ref(nn)
		}
		return true
	})
}

// goStmt adds the statement to the goroutine inventory and walks a
// spawned literal's body as a fresh goroutine scope: empty lockset,
// context = this spawn site. A named spawn (`go f()`) is no call of this
// goroutine: it adds a spawn edge but no call edge and no lock step.
func (st *scanState) goStmt(g *ast.GoStmt) {
	if st.node.firstSpawn == token.NoPos {
		st.node.firstSpawn = g.Pos()
	}
	lit, isLit := ast.Unparen(g.Call.Fun).(*ast.FuncLit)
	var callee *types.Func
	if !isLit {
		callee = st.callEdges(g.Call, edgeSpawn)
	}
	st.g.spawns = append(st.g.spawns, SpawnSite{
		Go: g, Callee: callee, InLoop: st.inLoop, Accounted: goStmtAccounted(st.pass, g),
	})
	if isLit {
		inner := &scanState{
			pass: st.pass, g: st.g, node: st.node,
			writes: st.writes, locked: st.locked, spawn: g, inLoop: st.inLoop,
		}
		inner.walk(lit.Body)
	}
	// Arguments are evaluated on the spawning goroutine.
	for _, arg := range g.Call.Args {
		st.walkExprs(arg)
	}
}

// call handles one call expression: its edges first, then mutex ops
// mutate the held set, sync/atomic calls become atomic accesses, and a
// static call of a module function becomes a lock step. Returns whether
// Inspect should descend into children.
func (st *scanState) call(call *ast.CallExpr) bool {
	callee := st.callEdges(call, edgeCall)
	if recv, op, ok := mutexOp(st.pass, call); ok {
		id := mutexID(st.pass, recv)
		switch {
		case op == "lock":
			st.acquire(call.Pos(), id)
		case id != "":
			for i := len(st.held) - 1; i >= 0; i-- {
				if st.held[i] == id {
					st.held = append(st.held[:i], st.held[i+1:]...)
					break
				}
			}
		}
		// The receiver chain (s.mu) is itself a selector; sync-typed
		// fields are exempt, but the path to them may read other fields.
		st.access(recv, false)
		return false
	}
	if st.atomicCall(call) {
		return false
	}
	if callee != nil && !isInterfaceMethod(callee) && st.g.module[callee.Pkg()] {
		st.step(call.Pos(), "", callee)
	}
	// Descend: arguments may access fields, nested calls, etc.
	for _, arg := range call.Args {
		st.walkExprs(arg)
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		// Method receiver expression: s.jobs[id].phase() reads fields on
		// the way to the method.
		st.walkExprs(fun.X)
	case *ast.Ident:
	default:
		// A called literal or call result: func() { ... }() runs here.
		st.walkExprs(fun)
	}
	return false
}

// acquire pushes mutex id onto the held set, recording the lock step
// first. Function-local mutexes (id "") are not tracked.
func (st *scanState) acquire(pos token.Pos, id string) {
	if id == "" {
		return
	}
	st.step(pos, id, nil)
	st.held = append(st.held, id)
}

func (st *scanState) step(pos token.Pos, mutex string, callee *types.Func) {
	st.node.steps = append(st.node.steps, lockStep{
		pos: pos, mutex: mutex, callee: callee, held: st.snapshot(), inGo: st.spawn != nil,
	})
}

// callEdges records the edges of one call in the current goroutine
// scope and returns its static callee (nil for builtins, conversions and
// calls of function values). An interface call is resolved here, once,
// to its module implementations; the interface method itself is only
// named.
func (st *scanState) callEdges(call *ast.CallExpr, kind edgeKind) *types.Func {
	callee := calleeFuncOf(st.pass, call)
	switch {
	case callee == nil:
	case isInterfaceMethod(callee):
		for _, m := range st.g.implementations(callee) {
			st.edge(m, kind)
		}
		st.edge(callee, edgeRef)
	case st.g.module[callee.Pkg()]:
		st.edge(callee, kind)
	default:
		st.edge(callee, edgeRef) // outside the module: opaque
	}
	return callee
}

// ref records an identifier naming a function without calling it.
func (st *scanState) ref(id *ast.Ident) {
	if fn, ok := st.pass.TypesInfo.Uses[id].(*types.Func); ok {
		st.edge(fn, edgeRef)
	}
}

func (st *scanState) edge(callee *types.Func, kind edgeKind) {
	st.node.edges = append(st.node.edges, callEdge{callee: callee, kind: kind, spawn: st.spawn})
}

// atomicCall recognizes sync/atomic calls over a field address and
// records them as atomic accesses. Returns true when handled.
func (st *scanState) atomicCall(call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, _ := st.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
		return false
	}
	name := fn.Name()
	write := strings.HasPrefix(name, "Store") || strings.HasPrefix(name, "Add") ||
		strings.HasPrefix(name, "Swap") || strings.HasPrefix(name, "CompareAndSwap") ||
		strings.HasPrefix(name, "Or") || strings.HasPrefix(name, "And")
	for _, arg := range call.Args {
		if u, ok := ast.Unparen(arg).(*ast.UnaryExpr); ok && u.Op == token.AND {
			if target, ok := ast.Unparen(u.X).(*ast.SelectorExpr); ok {
				st.recordAccess(target, true, write)
				st.walkExprs(target.X) // the path to the field still reads
				continue
			}
		}
		st.walkExprs(arg)
	}
	return true
}

// access records a selector chain: the final selector plus every field
// read on the path to it.
func (st *scanState) access(e ast.Expr, descend bool) {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		if descend {
			if inner := ast.Unparen(e); inner != e {
				st.walkExprs(inner)
			}
		}
		return
	}
	st.recordAccess(sel, false, st.writes[sel])
	st.walkExprs(sel.X)
}

// recordAccess appends one raw access if the selector resolves to a
// non-exempt struct field or package-level variable.
func (st *scanState) recordAccess(sel *ast.SelectorExpr, atomic, write bool) {
	v := st.tracked(sel.Sel)
	if v == nil {
		return
	}
	if st.constructorLocal(sel.X) {
		return // freshly built value, not shared yet
	}
	if st.valueCopyBase(sel.X) {
		return // field of a by-value parameter/receiver: frame-local copy
	}
	st.record(v, sel.Sel.Pos(), atomic, write)
}

// record appends one raw access to v under the currently held lockset.
func (st *scanState) record(v *types.Var, pos token.Pos, atomic, write bool) {
	locks := append([]string(nil), st.held...)
	sort.Strings(locks)
	st.node.accesses = append(st.node.accesses, rawAccess{
		field: v, pos: pos, locks: locks,
		atomic: atomic, write: write, spawn: st.spawn,
	})
}

// tracked resolves an identifier use to the struct field or
// package-level variable it accesses, or nil when the access is exempt.
func (st *scanState) tracked(id *ast.Ident) *types.Var {
	v, ok := st.pass.TypesInfo.Uses[id].(*types.Var)
	if !ok || v.Name() == "_" || v.Pkg() == nil || (!v.IsField() && v.Parent() != v.Pkg().Scope()) {
		return nil
	}
	if st.locked {
		return nil // *Locked: the caller holds the guard
	}
	if syncType(v.Type()) {
		return nil // mutexes, wait groups, atomic.Int64 & co guard themselves
	}
	return v
}

// constructorLocal reports whether the access base bottoms out in a
// local variable that demonstrably holds a freshly constructed value: a
// composite literal, new(), or a New*/make* constructor call assigned
// inside this function body. A local that aliases shared state (a range
// element, a map lookup, a plain parameter copy) does not count.
func (st *scanState) constructorLocal(base ast.Expr) bool {
	id, ok := ast.Unparen(base).(*ast.Ident)
	if !ok {
		return false
	}
	obj, ok := st.pass.TypesInfo.Uses[id].(*types.Var)
	if !ok || obj.IsField() {
		return false
	}
	body := st.node.decl.Body
	if obj.Pos() < body.Pos() || obj.Pos() > body.End() {
		return false
	}
	fresh := false
	ast.Inspect(body, func(n ast.Node) bool {
		if fresh {
			return false
		}
		switch nn := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range nn.Lhs {
				lid, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok || st.pass.TypesInfo.Defs[lid] != obj {
					continue
				}
				if i < len(nn.Rhs) && freshExpr(st.pass, nn.Rhs[i]) {
					fresh = true
				} else if len(nn.Rhs) == 1 && freshExpr(st.pass, nn.Rhs[0]) {
					fresh = true
				}
			}
		case *ast.ValueSpec:
			for i, name := range nn.Names {
				if st.pass.TypesInfo.Defs[name] != obj {
					continue
				}
				if i < len(nn.Values) && freshExpr(st.pass, nn.Values[i]) {
					fresh = true
				}
			}
		}
		return true
	})
	return fresh
}

// valueCopyBase reports whether the access base is a by-value
// parameter or receiver of struct type: its fields live in this frame's
// copy, so mutating them (the TracerConfig.withDefaults pattern —
// value receiver, fill in defaults, return the copy) shares nothing.
func (st *scanState) valueCopyBase(base ast.Expr) bool {
	id, ok := ast.Unparen(base).(*ast.Ident)
	if !ok {
		return false
	}
	obj, ok := st.pass.TypesInfo.Uses[id].(*types.Var)
	if !ok || obj.IsField() {
		return false
	}
	decl := st.node.decl
	if obj.Pos() < decl.Pos() || obj.Pos() >= decl.Body.Pos() {
		return false // not declared in the signature
	}
	_, isStruct := obj.Type().Underlying().(*types.Struct)
	return isStruct
}

// freshExpr reports whether the expression constructs a new value.
func freshExpr(pass *analysis.Pass, e ast.Expr) bool {
	switch nn := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if nn.Op == token.AND {
			_, lit := ast.Unparen(nn.X).(*ast.CompositeLit)
			return lit
		}
	case *ast.CallExpr:
		if id, ok := ast.Unparen(nn.Fun).(*ast.Ident); ok {
			if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok {
				return b.Name() == "new" || b.Name() == "make"
			}
			if fn, ok := pass.TypesInfo.Uses[id].(*types.Func); ok {
				return strings.HasPrefix(fn.Name(), "New") || strings.HasPrefix(fn.Name(), "new")
			}
		}
		if sel, ok := ast.Unparen(nn.Fun).(*ast.SelectorExpr); ok {
			return strings.HasPrefix(sel.Sel.Name, "New") || strings.HasPrefix(sel.Sel.Name, "new")
		}
	}
	return false
}

// syncType reports whether the (dereferenced) type is declared in sync
// or sync/atomic — fields of those types synchronize themselves.
func syncType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	switch named.Obj().Pkg().Path() {
	case "sync", "sync/atomic":
		return true
	}
	return false
}

// ---------------------------------------------------------------------
// Goroutine-context propagation.

// computeContexts assigns every package function the set of goroutine
// contexts it may run in: MainContext for functions callable from the
// original goroutine (exported, main/init, or never called), and a
// spawn-site id per `go` statement that reaches it. Spawn sites come
// from the goroutine inventory, keyed to their ids by spawnIDs. The sets
// propagate through the graph's call edges to a fixpoint; cross-package
// spawns arrive via SpawnedFact (imported, from dependents analyzed
// earlier in the reverse wave) and leave via the same fact for callees
// in imported module packages.
func computeContexts(pass *analysis.Pass, g *callGraph,
	spawnIDs map[*ast.GoStmt]string) (map[*types.Func]map[string]bool, map[string]bool) {
	ctx := map[*types.Func]map[string]bool{}
	multi := map[string]bool{}
	addCtx := func(fn *types.Func, c string) bool {
		if ctx[fn] == nil {
			ctx[fn] = map[string]bool{}
		}
		if ctx[fn][c] {
			return false
		}
		ctx[fn][c] = true
		return true
	}
	// local reports a call edge into this package; other call edges lead
	// into imported module packages.
	local := func(e callEdge) bool { return e.kind == edgeCall && e.callee.Pkg() == pass.TypesPkg }

	// Which in-package functions are called or spawned at all. Calls
	// inside a go-literal run in that literal's context, a spawned
	// function in its spawn's.
	referenced := map[*types.Func]bool{}
	for _, fn := range g.funcs {
		for _, e := range fn.edges {
			if local(e) {
				referenced[e.callee] = true
				if e.spawn != nil {
					addCtx(e.callee, spawnIDs[e.spawn])
				}
			}
		}
	}
	for _, sp := range g.spawns {
		id := spawnIDs[sp.Go]
		if sp.InLoop {
			multi[id] = true
		}
		if sp.Callee != nil {
			referenced[sp.Callee] = true
			if sp.Callee.Pkg() == pass.TypesPkg {
				addCtx(sp.Callee, id)
			}
		}
	}
	// Exported, main/init and never-called functions run on the original
	// goroutine; dependents' spawns arrive as facts.
	for _, fn := range g.funcs {
		name := fn.obj.Name()
		if ast.IsExported(name) || name == "main" || name == "init" || !referenced[fn.obj] {
			addCtx(fn.obj, MainContext)
		}
		fact := new(SpawnedFact)
		if pass.ImportObjectFact(fn.obj, fact) {
			for _, id := range fact.Sites {
				addCtx(fn.obj, id)
				if fact.Multi {
					multi[id] = true
				}
			}
		}
	}

	// Fixpoint over the function's own calls: a callee runs wherever its
	// callers run.
	for changed := true; changed; {
		changed = false
		for _, fn := range g.funcs {
			from := ctx[fn.obj]
			if len(from) == 0 {
				continue
			}
			for _, e := range fn.edges {
				if !local(e) || e.spawn != nil {
					continue
				}
				for c := range from {
					if addCtx(e.callee, c) {
						changed = true
					}
				}
			}
		}
	}

	// Export spawn facts for imported callees: direct spawns, calls from
	// go-literals, and normal calls made while running in a goroutine
	// context. The callee's package runs after this one in the reverse
	// wave and folds the fact into its own seeds.
	export := map[*types.Func]*SpawnedFact{}
	note := func(callee *types.Func, ids []string, m bool) {
		if callee == nil || callee.Pkg() == nil || callee.Pkg() == pass.TypesPkg {
			return
		}
		f := export[callee]
		if f == nil {
			f = &SpawnedFact{}
			export[callee] = f
		}
		f.Sites = append(f.Sites, ids...)
		f.Multi = f.Multi || m
	}
	for _, sp := range g.spawns {
		id := spawnIDs[sp.Go]
		note(sp.Callee, []string{id}, multi[id])
	}
	for _, fn := range g.funcs {
		goCtx := make([]string, 0, len(ctx[fn.obj]))
		m := false
		for c := range ctx[fn.obj] {
			if c != MainContext {
				goCtx = append(goCtx, c)
				m = m || multi[c]
			}
		}
		for _, e := range fn.edges {
			switch {
			case e.kind != edgeCall || local(e):
			case e.spawn != nil:
				note(e.callee, []string{spawnIDs[e.spawn]}, multi[spawnIDs[e.spawn]])
			case len(goCtx) > 0:
				note(e.callee, goCtx, m)
			}
		}
	}
	for callee, fact := range export {
		sharedFactMu.Lock()
		merged := new(SpawnedFact)
		pass.ImportObjectFact(callee, merged)
		merged.Sites = dedupSorted(append(merged.Sites, fact.Sites...))
		merged.Multi = merged.Multi || fact.Multi
		pass.ExportObjectFact(callee, merged)
		sharedFactMu.Unlock()
	}
	return ctx, multi
}

func dedupSorted(in []string) []string {
	sort.Strings(in)
	out := in[:0]
	for i, s := range in {
		if i == 0 || s != in[i-1] {
			out = append(out, s)
		}
	}
	return out
}
