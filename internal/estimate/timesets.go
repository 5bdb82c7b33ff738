// Package estimate implements the paper's logic-level estimators (§3):
// the transition-time sets and maximum transient current of a gate group
// (§3.1), the nominal and BIC-degraded circuit delays on the unit-delay
// time grid (§3.2), the separation parameter of the interconnection cost
// (§3.3), and the test-application-time overhead (§3.4). These estimators
// trade accuracy for speed so the evolution algorithm can evaluate a large
// number of partitions: they are deliberately pessimistic (all gates at
// equal path depth are assumed to switch simultaneously) but computable in
// time linear in the circuit size. The BIC-degraded delay D_BIC is also
// maintained incrementally for a caller that keeps the arrival time and
// degraded delay of every gate between evaluations (UpdateBICDelay): only
// the changed modules' delays are written, and only the gates downstream
// of them are recomputed, in place on the caller's vectors.
package estimate

import (
	"math/bits"

	"iddqsyn/internal/celllib"
	"iddqsyn/internal/circuit"
)

// bitset is a fixed-capacity set of small integers (transition times).
type bitset []uint64

func newBitset(capacity int) bitset {
	return make(bitset, (capacity+64)/64)
}

func (b bitset) set(i int) { b[i/64] |= 1 << uint(i%64) }

func (b bitset) orShift1(src bitset) {
	// b |= src << 1, the "transition arrives one stage later" transfer.
	var carry uint64
	for i := range src {
		b[i] |= src[i]<<1 | carry
		carry = src[i] >> 63
	}
	if carry != 0 && len(b) > len(src) {
		b[len(src)] |= carry
	}
}

// appendMembers appends the set's members to dst in ascending order,
// visiting only the set bits (one TrailingZeros64 per member).
func (b bitset) appendMembers(dst []int32) []int32 {
	for wi, w := range b {
		for ; w != 0; w &= w - 1 {
			dst = append(dst, int32(wi*64+bits.TrailingZeros64(w)))
		}
	}
	return dst
}

// TimeSets holds, for every gate g, the set of possible transition times
// {t₁ⁱ, ..., t_Lᵢⁱ} of §3.1: the lengths of all input→g paths on the
// unit-delay grid. A gate can switch only at times in its set, and the
// pessimistic simultaneity assumption is that all gates sharing a time
// actually do switch together.
type TimeSets struct {
	c     *circuit.Circuit
	depth int
	// times[start[g]:start[g+1]] is T(g) in ascending order. The sets are
	// built as bitsets and their members extracted once, so every profile
	// loop visits a gate's transition times directly instead of testing
	// each grid time.
	times []int32
	start []int32
}

// TransitionTimes computes the transition-time sets of all gates by a
// single topological pass: T(input) = {0}, T(g) = ⋃_{f∈fanin(g)} T(f)+1.
func TransitionTimes(c *circuit.Circuit) *TimeSets {
	depth := c.Depth()
	sets := make([]bitset, c.NumGates())
	for _, id := range c.TopoOrder() {
		g := &c.Gates[id]
		b := newBitset(depth + 1)
		if g.Type == circuit.Input {
			b.set(0)
		} else {
			for _, f := range g.Fanin {
				b.orShift1(sets[f])
			}
		}
		sets[id] = b
	}
	ts := &TimeSets{c: c, depth: depth, start: make([]int32, len(sets)+1)}
	for g, b := range sets {
		ts.times = b.appendMembers(ts.times)
		ts.start[g+1] = int32(len(ts.times))
	}
	return ts
}

// of returns T(gate) in ascending order; the slice is shared.
func (ts *TimeSets) of(gate int) []int32 {
	return ts.times[ts.start[gate]:ts.start[gate+1]]
}

// Depth returns the time-grid extent (the circuit depth).
func (ts *TimeSets) Depth() int { return ts.depth }

// Has reports whether gate can have a transition at grid time t.
func (ts *TimeSets) Has(gate, t int) bool {
	for _, u := range ts.of(gate) {
		if int(u) == t {
			return true
		}
	}
	return false
}

// Times returns the ascending list of possible transition times of gate.
func (ts *TimeSets) Times(gate int) []int {
	var out []int
	for _, t := range ts.of(gate) {
		out = append(out, int(t))
	}
	return out
}

// NumTimes returns |T(gate)|, the Lᵢ of §3.1.
func (ts *TimeSets) NumTimes(gate int) int { return len(ts.of(gate)) }

// ActivityProfile returns n(t) for a group of gates: the number of group
// members that can switch at each grid time t — the activity term of the
// §3.2 delay degradation model, and the profile whose current-weighted
// maximum is îDD,max.
func (ts *TimeSets) ActivityProfile(gates []int) []int {
	//lint:ignore hotalloc the profile is retained in the returned Module estimate, which the partition caches per module
	prof := make([]int, ts.depth+1)
	for _, g := range gates {
		ts.AddActivity(prof, g, 1)
	}
	return prof
}

// AddActivity adds delta to prof[t] at every transition time t of gate.
// With delta = +1 or -1 it is the exact change of a group's n(t) profile
// when the gate joins or leaves the group.
func (ts *TimeSets) AddActivity(prof []int, gate, delta int) {
	for _, t := range ts.of(gate) {
		prof[t] += delta
	}
}

// MaxCurrent returns the §3.1 upper bound on the maximum transient current
// of a gate group:
//
//	îDD,max = max_t Σ_{g : t ∈ T(g)} îDD,max(g)
//
// i.e. the worst grid instant, assuming every gate that can switch at that
// instant does and their peak currents add. The estimate is pessimistic
// (blocked paths are not analysed) but computable in one pass.
func (ts *TimeSets) MaxCurrent(a *celllib.Annotated, gates []int) float64 {
	return ts.maxCurrentScratch(a, gates, make([]float64, ts.depth+1))
}

// maxCurrentScratch is MaxCurrent against a caller-provided profile
// buffer of length depth+1 (any contents; it is zeroed here).
func (ts *TimeSets) maxCurrentScratch(a *celllib.Annotated, gates []int, prof []float64) float64 {
	prof = prof[:ts.depth+1]
	for t := range prof {
		prof[t] = 0
	}
	for _, g := range gates {
		peak := a.Peak[g]
		for _, t := range ts.of(g) {
			prof[t] += peak
		}
	}
	var max float64
	for _, v := range prof {
		if v > max {
			max = v
		}
	}
	return max
}
