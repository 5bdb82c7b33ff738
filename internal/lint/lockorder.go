package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"iddqsyn/internal/lint/analysis"
)

// LockOrder detects lock-acquisition-order cycles: mutex B acquired while
// A is held on one code path, and A acquired while B is held on another.
// Two such paths running concurrently deadlock, and the race detector is
// silent about it — it needs the unlucky interleaving, which a chaos soak
// may never produce.
//
// Mutexes are identified structurally, not by instance: a field mutex is
// "pkg.Type.field", a package-level mutex is "pkg.name". This matches how
// lock hierarchies are designed (all instances of a type share one rank)
// and keeps the analysis flow-insensitive and cheap. Within a function the
// held set is tracked by a linear scan in source order: Lock/RLock pushes,
// Unlock/RUnlock pops, a *deferred* unlock holds to the end of the
// function. Calls are expanded one level deep through per-function
// acquisition summaries (AcquiresFact), which cross package boundaries in
// the forward (dependencies-first) direction — the serve layer calling
// into store with a lock held is exactly the cross-package shape that
// produced real deadlocks elsewhere.
//
// Self-edges (re-acquiring the same structural mutex) are not reported:
// two instances of one type may be locked in sequence legitimately
// (hand-over-hand), and instance-level reentrancy is the runtime
// deadlock detector's territory. Only cycles between *distinct*
// mutexes are flagged, at every edge that participates in the cycle.
var LockOrder = &analysis.Analyzer{
	Name: "lockorder",
	Doc: "detect lock-acquisition-order cycles across functions and packages " +
		"(mutex A held while acquiring B, elsewhere B held while acquiring A): " +
		"static deadlock risks the race detector cannot see",
	FactTypes: []analysis.Fact{(*AcquiresFact)(nil)},
	Run:       runLockOrder,
}

// AcquiresFact summarizes the structural mutexes a function may acquire,
// directly or transitively; callers consult it to extend their held-set
// edges through calls.
type AcquiresFact struct {
	Mutexes []string // sorted structural IDs
}

// AFact marks AcquiresFact as a framework fact.
func (*AcquiresFact) AFact() {}

func (f *AcquiresFact) String() string {
	return "acquires " + strings.Join(f.Mutexes, ", ")
}

// lockEvent is one mutex operation or call site in source order.
type lockEvent struct {
	pos      token.Pos
	mutex    string      // structural ID ("" for call events)
	op       string      // "lock", "unlock", "call"
	deferred bool        // inside a defer statement
	callee   *types.Func // for op "call"
}

func runLockOrder(pass *analysis.Pass) (interface{}, error) {
	funcs := packageFuncs(pass)
	events := make(map[*types.Func][]lockEvent, len(funcs))
	for _, fn := range funcs {
		events[fn.obj] = lockEvents(pass, fn.decl.Body)
	}

	// Fixpoint: transitive acquisition summaries over this package's call
	// graph, seeded with imported facts for out-of-package callees.
	acq := make(map[*types.Func]map[string]bool, len(funcs))
	for fn := range events {
		acq[fn] = map[string]bool{}
	}
	calleeAcquires := func(callee *types.Func) []string {
		if local, ok := acq[callee]; ok {
			ids := make([]string, 0, len(local))
			for id := range local {
				ids = append(ids, id)
			}
			return ids
		}
		fact := new(AcquiresFact)
		if pass.ImportObjectFact(callee, fact) {
			return fact.Mutexes
		}
		return nil
	}
	for changed := true; changed; {
		changed = false
		for _, f := range funcs {
			fn, evs := f.obj, events[f.obj]
			for _, ev := range evs {
				switch ev.op {
				case "lock":
					if !acq[fn][ev.mutex] {
						acq[fn][ev.mutex] = true
						changed = true
					}
				case "call":
					for _, id := range calleeAcquires(ev.callee) {
						if !acq[fn][id] {
							acq[fn][id] = true
							changed = true
						}
					}
				}
			}
		}
	}
	for fn, ids := range acq {
		if len(ids) == 0 {
			continue
		}
		sorted := make([]string, 0, len(ids))
		for id := range ids {
			sorted = append(sorted, id)
		}
		sort.Strings(sorted)
		pass.ExportObjectFact(fn, &AcquiresFact{Mutexes: sorted})
	}

	// Edge pass: replay each function's events with a held-set; every
	// acquisition (direct or through a call summary) while another mutex is
	// held records an ordered edge.
	type edge struct {
		pos    token.Pos
		via    string // what was being acquired/called when the edge formed
		caller string
	}
	edges := map[string]map[string]edge{}
	addEdge := func(from, to string, pos token.Pos, via, caller string) {
		if from == to {
			return // structural self-edge: hand-over-hand, not an order cycle
		}
		if edges[from] == nil {
			edges[from] = map[string]edge{}
		}
		if _, ok := edges[from][to]; !ok {
			edges[from][to] = edge{pos: pos, via: via, caller: caller}
		}
	}
	// File order, so the representative position of a repeated edge is
	// stable run to run.
	for _, f := range funcs {
		fn, evs := f.obj, events[f.obj]
		var held []string
		for _, ev := range evs {
			switch ev.op {
			case "lock":
				for _, h := range held {
					addEdge(h, ev.mutex, ev.pos, ev.mutex, fn.Name())
				}
				held = append(held, ev.mutex)
			case "unlock":
				if ev.deferred {
					continue // deferred unlock: held to function end
				}
				for i := len(held) - 1; i >= 0; i-- {
					if held[i] == ev.mutex {
						held = append(held[:i], held[i+1:]...)
						break
					}
				}
			case "call":
				if len(held) == 0 {
					continue
				}
				ids := calleeAcquires(ev.callee)
				sort.Strings(ids)
				for _, id := range ids {
					for _, h := range held {
						addEdge(h, id, ev.pos, ev.callee.Name()+" (which acquires "+id+")", fn.Name())
					}
				}
			}
		}
	}

	// Report every edge that lies on a cycle: A→B where B reaches A.
	reaches := func(from, to string) bool {
		seen := map[string]bool{from: true}
		stack := []string{from}
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for next := range edges[n] {
				if next == to {
					return true
				}
				if !seen[next] {
					seen[next] = true
					stack = append(stack, next)
				}
			}
		}
		return false
	}
	froms := make([]string, 0, len(edges))
	for from := range edges {
		froms = append(froms, from)
	}
	sort.Strings(froms)
	for _, from := range froms {
		tos := make([]string, 0, len(edges[from]))
		for to := range edges[from] {
			tos = append(tos, to)
		}
		sort.Strings(tos)
		for _, to := range tos {
			if !reaches(to, from) {
				continue
			}
			e := edges[from][to]
			pass.Reportf(e.pos,
				"lock order cycle: %s acquires %s while holding %s, but %s is elsewhere held while acquiring %s (deadlock risk); "+
					"pick one global acquisition order", e.caller, to, from, to, from)
		}
	}
	return nil, nil
}

// lockEvents scans one function body in source order for mutex
// operations and resolvable calls.
func lockEvents(pass *analysis.Pass, body *ast.BlockStmt) []lockEvent {
	var evs []lockEvent
	var walk func(n ast.Node, deferred bool)
	walk = func(n ast.Node, deferred bool) {
		ast.Inspect(n, func(n ast.Node) bool {
			if d, ok := n.(*ast.DeferStmt); ok {
				walk(d.Call, true)
				return false
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if recv, op, ok := mutexOp(pass, call); ok {
				if id := mutexID(pass, recv); id != "" {
					evs = append(evs, lockEvent{pos: call.Pos(), mutex: id, op: op, deferred: deferred})
				}
				return true
			}
			if callee := calleeFuncOf(pass, call); callee != nil && !isInterfaceMethod(callee) {
				evs = append(evs, lockEvent{pos: call.Pos(), op: "call", deferred: deferred, callee: callee})
			}
			return true
		})
	}
	walk(body, false)
	return evs
}

// mutexOp recognizes calls of the sync lock methods, returning the
// receiver expression and whether it is an acquisition ("lock") or a
// release ("unlock").
func mutexOp(pass *analysis.Pass, call *ast.CallExpr) (recv ast.Expr, op string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return nil, "", false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		op = "lock"
	case "Unlock", "RUnlock":
		op = "unlock"
	default:
		return nil, "", false
	}
	// The method must actually come from package sync (Mutex, RWMutex or
	// the Locker interface), not merely be named Lock.
	var m *types.Func
	if s, okSel := pass.TypesInfo.Selections[sel]; okSel {
		m, _ = s.Obj().(*types.Func)
	} else {
		m, _ = pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	}
	if m == nil || m.Pkg() == nil || m.Pkg().Path() != "sync" {
		return nil, "", false
	}
	return sel.X, op, true
}

// mutexID names a mutex structurally: "pkg.Type.field" for a field,
// "pkg.Type" for a lockable type (embedded mutex), "pkg.name" for a
// package-level mutex. Function-local mutexes get no ID — they cannot
// participate in a cross-function order cycle.
func mutexID(pass *analysis.Pass, recv ast.Expr) string {
	switch e := ast.Unparen(recv).(type) {
	case *ast.Ident:
		v, ok := pass.TypesInfo.Uses[e].(*types.Var)
		if !ok {
			return ""
		}
		if pass.TypesPkg != nil && v.Parent() == pass.TypesPkg.Scope() {
			return pkgBase(pass.Pkg.Path) + "." + v.Name()
		}
		// A receiver/parameter of a named type with an embedded mutex:
		// identify by the type. Plain local sync.Mutex values resolve to
		// the sync package and are skipped.
		if id := namedTypeID(v.Type()); id != "" {
			return id
		}
	case *ast.SelectorExpr:
		tv, ok := pass.TypesInfo.Types[e.X]
		if !ok {
			return ""
		}
		if base := namedTypeID(tv.Type); base != "" {
			return base + "." + e.Sel.Name
		}
	}
	return ""
}

// namedTypeID renders a named, non-sync type as "pkg.Type" (pointers
// dereferenced); anything else — including sync.Mutex itself, so bare
// local mutexes stay anonymous — yields "".
func namedTypeID(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	if named.Obj().Pkg().Path() == "sync" {
		return ""
	}
	return fmt.Sprintf("%s.%s", pkgBase(named.Obj().Pkg().Path()), named.Obj().Name())
}
