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
// and keeps the analysis cheap. The held set comes from the call graph's
// body scan (scanFunc), which sharedstate reads too, so both analyzers
// track locks the same way: flow
// sensitively, with the lock effects of an arm that cannot fall through
// (return, break, panic) dropped after it, switch and select cases
// walked as alternatives, a deferred unlock holding to function end, and
// the body of a `go` literal starting from an empty held set. Its steps
// form edges among themselves but stay out of the enclosing function's
// summary, as does a named `go f()`: the spawned goroutine never holds
// the spawner's locks.
//
// Direct calls are expanded through per-function acquisition summaries
// (AcquiresFact), which cross package boundaries in the forward
// (dependencies-first) direction — the serve layer calling into store
// with a lock held is exactly the cross-package shape that produced real
// deadlocks elsewhere. That direction is why lockorder stays a separate
// analyzer from sharedstate, whose goroutine contexts flow the other way.
// Interface-method calls are not expanded.
//
// Self-edges (re-acquiring the same structural mutex) are not reported:
// two instances of one type may be locked in sequence legitimately
// (hand-over-hand), and instance-level reentrancy is the runtime
// deadlock detector's territory. Only cycles between *distinct*
// mutexes are flagged, at every edge that participates in the cycle,
// once per edge at its first position in file order.
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

func runLockOrder(pass *analysis.Pass) (interface{}, error) {
	funcs := callGraphOf(pass).funcs
	acq := make(map[*types.Func]map[string]bool, len(funcs))
	for _, fn := range funcs {
		acq[fn.obj] = map[string]bool{}
	}

	// acquired lists what one step acquires: its mutex, or its callee's
	// summary (this package's in-progress one, else the imported fact).
	acquired := func(s lockStep) []string {
		if s.callee == nil {
			return []string{s.mutex}
		}
		if local, ok := acq[s.callee]; ok {
			return sortedKeys(local)
		}
		fact := new(AcquiresFact)
		if pass.ImportObjectFact(s.callee, fact) {
			return fact.Mutexes
		}
		return nil
	}

	// Fixpoint: transitive acquisition summaries over this package's call
	// graph, seeded with imported facts for out-of-package callees.
	for changed := true; changed; {
		changed = false
		for _, fn := range funcs {
			for _, s := range fn.steps {
				if s.inGo {
					continue
				}
				for _, id := range acquired(s) {
					if !acq[fn.obj][id] {
						acq[fn.obj][id] = true
						changed = true
					}
				}
			}
		}
	}
	for fn, ids := range acq {
		if len(ids) > 0 {
			pass.ExportObjectFact(fn, &AcquiresFact{Mutexes: sortedKeys(ids)})
		}
	}

	// Edge pass: every acquisition (direct or through a call summary)
	// while another mutex is held records an ordered edge at its first
	// position in file order.
	type edge struct {
		pos    token.Pos
		caller string
	}
	edges := map[string]map[string]edge{}
	for _, fn := range funcs {
		for _, s := range fn.steps {
			if len(s.held) == 0 {
				continue
			}
			for _, to := range acquired(s) {
				for _, from := range s.held {
					if from == to {
						continue // structural self-edge: hand-over-hand, not an order cycle
					}
					if edges[from] == nil {
						edges[from] = map[string]edge{}
					}
					if e, ok := edges[from][to]; !ok || s.pos < e.pos {
						edges[from][to] = edge{pos: s.pos, caller: fn.obj.Name()}
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
