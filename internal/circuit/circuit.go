// Package circuit provides the gate-level netlist representation used by
// every other package in iddqsyn.
//
// A Circuit is a directed acyclic graph of gates. Primary inputs are
// modelled as gates of type Input with no fanin; every other gate computes
// a Boolean function of its fanins. Primary outputs are ordinary gates
// additionally listed in Circuit.Outputs, following the ISCAS85 convention
// where OUTPUT(n) names an existing net.
//
// The partitioning problem of the paper (PART-IDDQ) is defined over the
// logic gates only: primary inputs consume no supply current and are never
// assigned to a BIC-sensor module.
package circuit

import (
	"fmt"
	"math/bits"
	"sort"
)

// GateType enumerates the Boolean functions supported by the netlist.
// The set matches what the ISCAS85 benchmark format uses.
type GateType int

// Supported gate types.
const (
	Input GateType = iota // primary input (no fanin)
	Buf                   // identity
	Not                   // inverter
	And
	Nand
	Or
	Nor
	Xor
	Xnor
)

var gateTypeNames = [...]string{
	Input: "INPUT",
	Buf:   "BUF",
	Not:   "NOT",
	And:   "AND",
	Nand:  "NAND",
	Or:    "OR",
	Nor:   "NOR",
	Xor:   "XOR",
	Xnor:  "XNOR",
}

// String returns the ISCAS85 keyword for the gate type.
func (t GateType) String() string {
	if t < 0 || int(t) >= len(gateTypeNames) {
		return fmt.Sprintf("GateType(%d)", int(t))
	}
	return gateTypeNames[t]
}

// ParseGateType converts an ISCAS85 keyword (case-insensitive) to a
// GateType. The second result reports whether the keyword was recognised.
func ParseGateType(s string) (GateType, bool) {
	switch normalizeKeyword(s) {
	case "INPUT":
		return Input, true
	case "BUF", "BUFF":
		return Buf, true
	case "NOT", "INV":
		return Not, true
	case "AND":
		return And, true
	case "NAND":
		return Nand, true
	case "OR":
		return Or, true
	case "NOR":
		return Nor, true
	case "XOR":
		return Xor, true
	case "XNOR":
		return Xnor, true
	}
	return 0, false
}

func normalizeKeyword(s string) string {
	b := make([]byte, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		b[i] = c
	}
	return string(b)
}

// Eval computes the gate function over the fanin values. It panics for
// Input gates, which have no function. A Buf or Not gate uses only the
// first fanin value.
func (t GateType) Eval(in []bool) bool {
	switch t {
	case Buf:
		return in[0]
	case Not:
		return !in[0]
	case And, Nand:
		v := true
		for _, x := range in {
			v = v && x
		}
		if t == Nand {
			return !v
		}
		return v
	case Or, Nor:
		v := false
		for _, x := range in {
			v = v || x
		}
		if t == Nor {
			return !v
		}
		return v
	case Xor, Xnor:
		v := false
		for _, x := range in {
			v = v != x
		}
		if t == Xnor {
			return !v
		}
		return v
	}
	return mustEval(t)
}

// mustEval rejects an Eval call on a gate type with no Boolean function
// (Input, or a corrupted GateType value) — a caller invariant violation,
// not an input condition, so it panics per the project's panic policy.
func mustEval(t GateType) bool {
	panic("circuit: Eval on " + t.String())
}

// Inverting reports whether the gate output is the complement of the
// underlying monotone function (NAND, NOR, NOT, XNOR). It is used by the
// cell library to pick the pull-down network model.
func (t GateType) Inverting() bool {
	switch t {
	case Not, Nand, Nor, Xnor:
		return true
	}
	return false
}

// Gate is one vertex of the netlist graph. Gates are identified by their
// dense integer ID, which doubles as the index into Circuit.Gates.
type Gate struct {
	ID     int
	Name   string
	Type   GateType
	Fanin  []int // driving gate IDs, in declaration order
	Fanout []int // driven gate IDs, sorted ascending
}

// Circuit is an immutable gate-level netlist. Construct one with a
// Builder; the zero value is an empty circuit.
type Circuit struct {
	Name    string
	Gates   []Gate // indexed by gate ID
	Inputs  []int  // IDs of primary-input gates, in declaration order
	Outputs []int  // IDs of gates observed as primary outputs

	byName map[string]int
	levels []int   // levelisation cache: longest path from any input
	order  []int   // topological order cache
	nbrs   [][]int // undirected logic-graph adjacency cache
}

// NumGates returns the total number of vertices including primary inputs.
func (c *Circuit) NumGates() int { return len(c.Gates) }

// NumLogicGates returns the number of gates excluding primary inputs —
// the n of the paper, i.e. the objects being partitioned.
func (c *Circuit) NumLogicGates() int { return len(c.Gates) - len(c.Inputs) }

// LogicGates returns the IDs of all non-input gates in ascending order.
func (c *Circuit) LogicGates() []int {
	ids := make([]int, 0, c.NumLogicGates())
	for i := range c.Gates {
		if c.Gates[i].Type != Input {
			ids = append(ids, i)
		}
	}
	return ids
}

// GateByName looks a gate up by its netlist name.
func (c *Circuit) GateByName(name string) (*Gate, bool) {
	id, ok := c.byName[name]
	if !ok {
		return nil, false
	}
	return &c.Gates[id], true
}

// IsOutput reports whether gate id is observed as a primary output.
func (c *Circuit) IsOutput(id int) bool {
	for _, o := range c.Outputs {
		if o == id {
			return true
		}
	}
	return false
}

// TopoOrder returns a topological order of all gate IDs (inputs first).
// The slice is shared; callers must not modify it.
func (c *Circuit) TopoOrder() []int {
	if c.order != nil {
		return c.order
	}
	//lint:ignore hotalloc lazy cache: built once per circuit, every later hot-path call returns the cached slice
	indeg := make([]int, len(c.Gates))
	for i := range c.Gates {
		indeg[i] = len(c.Gates[i].Fanin)
	}
	//lint:ignore hotalloc lazy cache: built once per circuit
	queue := make([]int, 0, len(c.Gates))
	for i := range c.Gates {
		if indeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	//lint:ignore hotalloc lazy cache: built once per circuit
	order := make([]int, 0, len(c.Gates))
	for len(queue) > 0 {
		g := queue[0]
		queue = queue[1:]
		order = append(order, g)
		for _, f := range c.Gates[g].Fanout {
			indeg[f]--
			if indeg[f] == 0 {
				queue = append(queue, f)
			}
		}
	}
	mustAcyclic(len(order) == len(c.Gates))
	c.order = order
	return order
}

// mustAcyclic asserts the levelisation invariant: a Circuit only exists
// after Builder validation proved it acyclic, so an incomplete topological
// order here means memory corruption or a bypassed Builder — an invariant
// violation, not an input condition.
func mustAcyclic(ok bool) {
	if !ok {
		panic("circuit: cycle in validated circuit")
	}
}

// Levels returns, for every gate, the length in gate stages of the longest
// path from any primary input (inputs are level 0). This is the unit-delay
// time grid of the paper's estimators. The slice is shared; callers must
// not modify it.
func (c *Circuit) Levels() []int {
	if c.levels != nil {
		return c.levels
	}
	//lint:ignore hotalloc lazy cache: built once per circuit, hot-path calls return the cached slice
	lv := make([]int, len(c.Gates))
	for _, g := range c.TopoOrder() {
		max := -1
		for _, f := range c.Gates[g].Fanin {
			if lv[f] > max {
				max = lv[f]
			}
		}
		lv[g] = max + 1
	}
	c.levels = lv
	return lv
}

// Depth returns the number of logic levels on the longest input→output
// path (the level of the deepest gate).
func (c *Circuit) Depth() int {
	d := 0
	for _, l := range c.Levels() {
		if l > d {
			d = l
		}
	}
	return d
}

// Neighbors returns the undirected neighbourhood of gate id restricted to
// logic gates (primary inputs are excluded, since the separation parameter
// of §3.3 is defined on the circuit graph being partitioned). The result
// is sorted and deduplicated; it is a shared cache entry, so callers must
// not modify it. Like the other lazy caches the whole table is built on
// first use — before the circuit is shared across optimizer goroutines —
// so the optimizers' move loops (which query neighbourhoods once per
// attempted mutation) read it without allocating.
func (c *Circuit) Neighbors(id int) []int {
	if c.nbrs == nil {
		//lint:ignore hotalloc lazy cache: the whole table is built on first use, then every move-loop query is allocation-free
		nbrs := make([][]int, len(c.Gates))
		for g := range c.Gates {
			nbrs[g] = c.neighborsOf(g)
		}
		c.nbrs = nbrs
	}
	return c.nbrs[id]
}

func (c *Circuit) neighborsOf(id int) []int {
	g := &c.Gates[id]
	//lint:ignore hotalloc runs only while Neighbors builds its one-time cache table
	out := make([]int, 0, len(g.Fanin)+len(g.Fanout))
	for _, f := range g.Fanin {
		if c.Gates[f].Type != Input {
			out = append(out, f)
		}
	}
	out = append(out, g.Fanout...)
	sort.Ints(out)
	return dedupSorted(out)
}

func dedupSorted(xs []int) []int {
	if len(xs) < 2 {
		return xs
	}
	w := 1
	for i := 1; i < len(xs); i++ {
		if xs[i] != xs[w-1] {
			xs[w] = xs[i]
			w++
		}
	}
	return xs[:w]
}

// HopScratch is the reusable working memory of AppendWithinHops: a hop
// count per gate, a visited bitset and the BFS queue. The zero value is
// ready to use; the bitset is all clear between calls. A HopScratch is not
// safe for concurrent use.
type HopScratch struct {
	hops  []int32
	seen  []uint64
	queue []int32
}

// AppendWithinHops runs a breadth-first search in the undirected logic
// graph (see Neighbors) from gate src and appends to gates every logic
// gate within k hops of it, src itself excluded, in ascending ID order,
// and to hops the matching hop counts: the separation parameter S(gi, gj)
// of §3.3 before the cap ρ is applied.
func (c *Circuit) AppendWithinHops(s *HopScratch, src, k int, gates, hops []int32) ([]int32, []int32) {
	if n := len(c.Gates); len(s.hops) < n {
		s.hops, s.seen = make([]int32, n), make([]uint64, (n+63)/64)
	}
	s.seen[src>>6] |= 1 << (src & 63)
	s.hops[src] = 0
	// The queue is in non-decreasing hop order, so the search stops at
	// the first gate k hops out.
	q := append(s.queue[:0], int32(src))
	for head := 0; head < len(q) && int(s.hops[q[head]]) < k; head++ {
		d := s.hops[q[head]] + 1
		for _, nb := range c.Neighbors(int(q[head])) {
			if w, bit := nb>>6, uint64(1)<<(nb&63); s.seen[w]&bit == 0 {
				s.seen[w] |= bit
				s.hops[nb] = d
				q = append(q, int32(nb))
			}
		}
	}
	s.queue = q
	s.seen[src>>6] &^= 1 << (src & 63)
	for w, word := range s.seen {
		for ; word != 0; word &= word - 1 {
			id := w<<6 | bits.TrailingZeros64(word)
			gates = append(gates, int32(id))
			hops = append(hops, s.hops[id])
		}
		s.seen[w] = 0
	}
	return gates, hops
}

// Stats summarises a circuit for reports and generator validation.
type Stats struct {
	Name       string
	Inputs     int
	Outputs    int
	LogicGates int
	Depth      int
	ByType     map[GateType]int
	MaxFanin   int
	MaxFanout  int
}

// ComputeStats gathers the structural statistics of the circuit.
func (c *Circuit) ComputeStats() Stats {
	s := Stats{
		Name:    c.Name,
		Inputs:  len(c.Inputs),
		Outputs: len(c.Outputs),
		ByType:  make(map[GateType]int),
	}
	for i := range c.Gates {
		g := &c.Gates[i]
		if g.Type == Input {
			continue
		}
		s.LogicGates++
		s.ByType[g.Type]++
		if len(g.Fanin) > s.MaxFanin {
			s.MaxFanin = len(g.Fanin)
		}
	}
	for i := range c.Gates {
		if n := len(c.Gates[i].Fanout); n > s.MaxFanout {
			s.MaxFanout = n
		}
	}
	s.Depth = c.Depth()
	return s
}

// String implements fmt.Stringer with a one-line summary.
func (c *Circuit) String() string {
	return fmt.Sprintf("%s: %d inputs, %d outputs, %d gates, depth %d",
		c.Name, len(c.Inputs), len(c.Outputs), c.NumLogicGates(), c.Depth())
}
