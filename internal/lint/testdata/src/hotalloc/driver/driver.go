// Package driver is the caller side of the hotalloc golden: it declares
// the hotpath roots, dispatches through an interface implemented in the
// kernel package (exercising cross-package fact export in the reverse
// wave), and pins both positive findings and the deliberate negatives
// (value struct literals, caller-provided append buffers, suppressed
// sites, directive hygiene).
package driver

import "hotalloc/kernel"

// Evaluator is dispatched on the hot path; kernel.Impl implements it.
type Evaluator interface {
	Eval(n int) int
}

// evalLoop is the descendant-evaluation inner loop of the golden.
//
//lint:hotpath per-descendant evaluation loop
func evalLoop(ev Evaluator, xs []int, scratch []int) int {
	total := 0
	for _, x := range xs {
		total += ev.Eval(x)
		total += len(kernel.Leaf(x))
		total += helper(x)
		scratch = fill(scratch[:0], x)
		total += len(scratch)
	}
	return total
}

// helper inherits hotness from evalLoop. The value struct literal does
// not allocate and is not flagged; the pointer literal is.
func helper(n int) int {
	s := struct{ a, b int }{n, n}
	p := &pair{n, n} // want `composite literal on the hot path`
	return s.a + p.a
}

type pair struct{ a, b int }

// fill appends into a caller-provided buffer: amortization is the
// caller's choice, so nothing is flagged even though fill is hot.
func fill(dst []int, n int) []int {
	for i := 0; i < n; i++ {
		dst = append(dst, i)
	}
	return dst
}

// describe exercises the remaining allocation kinds.
//
//lint:hotpath per-move reporting path
func describe(n int) int {
	msg := tag(n) + tag(n) // want `string concatenation on the hot path`
	sink(n)                // want `interface boxing on the hot path`
	f := func() int {      // want `closure on the hot path`
		return n
	}
	xs := []int{n}         // want `composite literal on the hot path`
	m := map[int]int{n: n} // want `composite literal on the hot path`
	p := new(pair)         // want `new on the hot path`
	q := make([]int, n)    // want `make on the hot path`
	ok := []int{n}         //lint:ignore hotalloc golden: justified site stays silent
	return len(msg) + f() + len(xs) + len(m) + p.a + len(q) + len(ok)
}

// tag is hot via describe; constant returns allocate nothing.
func tag(n int) string {
	if n > 0 {
		return "+"
	}
	return "-"
}

// sink is hot via describe; an interface parameter alone is fine.
func sink(v interface{}) int {
	if v == nil {
		return 0
	}
	return 1
}

// cold is not reachable from any root: allocations are silent.
func cold(n int) []int {
	return append([]int{}, n)
}

/*lint:hotpath*/ // want `hotpath directive requires a reason`
func badRoot()   {}

func notRoot() {
	/*lint:hotpath stray*/ // want `hotpath directive must be in the doc comment`
}
