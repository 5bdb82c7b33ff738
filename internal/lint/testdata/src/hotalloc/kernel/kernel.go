// Package kernel is the callee side of the hotalloc cross-package golden:
// it declares no hotpath roots of its own. Its functions become hot only
// through facts exported by the driver package, which runs *earlier* in
// the reverse wave because it imports this one.
package kernel

import "math/bits"

// Impl implements the driver's Evaluator interface; Eval is reached via
// interface dispatch from the driver's hot root.
type Impl struct{ buf []int }

// Eval appends into a field slice: growth is not provably amortized.
func (im *Impl) Eval(n int) int {
	im.buf = append(im.buf, n) // want `append \(growth not provably amortized\) on the hot path`
	return len(im.buf)
}

// Leaf is called directly by the driver's hot root. The make is flagged;
// the append into a slice made with explicit capacity is not. The
// standard-library callee gets no hot fact: no pass analyzes it.
func Leaf(n int) []int {
	out := make([]int, 0, n) // want `make on the hot path`
	for i := 0; i < n; i++ {
		out = append(out, bits.OnesCount(uint(i)))
	}
	return out
}

// Cold is never reached from any hot root: its allocations are silent.
func Cold() []int {
	xs := []int{1, 2, 3}
	return append(xs, 4)
}
