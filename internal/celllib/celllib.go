// Package celllib models the target technology cell library. The paper's
// estimators (§3) are evaluated "using parameterized electrical level
// information of the target technology": every cell is characterised by
// its peak transient supply current, worst-case quiescent (leakage)
// current, capacitances, an equivalent discharge resistance and a nominal
// delay. The default library approximates a 1 µm CMOS standard-cell
// technology of the paper's era.
package celllib

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"iddqsyn/internal/circuit"
)

// Cell is the electrical-level characterisation of one library cell.
// All values are in SI units (seconds, amperes, farads, ohms) except Area,
// which uses the paper's technology-dependent abstract area units.
type Cell struct {
	Name     string
	Function circuit.GateType
	MaxFanin int // largest fanin this cell variant supports

	Area           float64 // layout area, abstract units
	Delay          float64 // intrinsic propagation delay D(g), s
	DelayPerFanout float64 // incremental delay per fanout load, s

	PeakCurrent float64 // maximum transient iDD while switching, A
	LeakBase    float64 // quiescent current floor, A
	LeakPerIn   float64 // additional leakage per logic-high input, A

	Cin  float64 // input capacitance per pin, F
	Cout float64 // drain/output parasitic at the virtual rail, F
	Rg   float64 // equivalent ON resistance of the discharge network, Ω
}

// LeakageMax returns the worst-case quiescent current of the cell — the
// value entering the discriminability constraint IDDQ,nd (§2).
func (c *Cell) LeakageMax() float64 {
	return c.LeakBase + float64(c.MaxFanin)*c.LeakPerIn
}

// LeakageForState returns the quiescent current for a concrete input
// state. Leakage grows with the number of logic-high inputs (more devices
// biased in weak inversion across the OFF stack), a standard first-order
// state-dependent model.
func (c *Cell) LeakageForState(inputs []bool) float64 {
	ones := 0
	for _, v := range inputs {
		if v {
			ones++
		}
	}
	return c.LeakBase + float64(ones)*c.LeakPerIn
}

// Library is a set of cells indexed by logic function. For each function
// the library may hold several fanin variants (e.g. NAND2, NAND3, NAND4);
// lookup picks the smallest variant accommodating the requested fanin.
type Library struct {
	Name  string
	VDD   float64 // supply voltage, V
	cells map[circuit.GateType][]*Cell
}

// New creates an empty library with the given name and supply voltage.
func New(name string, vdd float64) *Library {
	return &Library{Name: name, VDD: vdd, cells: make(map[circuit.GateType][]*Cell)}
}

// ErrInvalidCell reports a cell parameter that is non-finite or out of
// range: MaxFanin, Area, Delay, PeakCurrent and Rg must be positive; the
// delay-per-fanout, leakage and capacitance terms must be non-negative.
var ErrInvalidCell = errors.New("celllib: invalid cell parameter")

// Add registers a cell. Variants for the same function are kept sorted by
// MaxFanin. A parameter out of range (ErrInvalidCell) or a duplicate
// (function, MaxFanin) pair is an error.
func (l *Library) Add(c *Cell) error {
	if c.MaxFanin <= 0 {
		return fmt.Errorf("%w: cell %q: MaxFanin = %d", ErrInvalidCell, c.Name, c.MaxFanin)
	}
	for _, p := range []struct {
		name   string
		v      float64
		zeroOK bool
	}{
		{"Area", c.Area, false},
		{"Delay", c.Delay, false},
		{"PeakCurrent", c.PeakCurrent, false},
		{"Rg", c.Rg, false},
		{"DelayPerFanout", c.DelayPerFanout, true},
		{"LeakBase", c.LeakBase, true},
		{"LeakPerIn", c.LeakPerIn, true},
		{"Cin", c.Cin, true},
		{"Cout", c.Cout, true},
	} {
		if math.IsNaN(p.v) || math.IsInf(p.v, 0) || p.v < 0 || (p.v == 0 && !p.zeroOK) {
			return fmt.Errorf("%w: cell %q: %s = %g", ErrInvalidCell, c.Name, p.name, p.v)
		}
	}
	vs := l.cells[c.Function]
	for _, v := range vs {
		if v.MaxFanin == c.MaxFanin {
			return fmt.Errorf("celllib: duplicate cell for %v fanin %d", c.Function, c.MaxFanin)
		}
	}
	vs = append(vs, c)
	sort.Slice(vs, func(i, j int) bool { return vs[i].MaxFanin < vs[j].MaxFanin })
	l.cells[c.Function] = vs
	return nil
}

// CellFor returns the smallest cell variant implementing typ with at least
// fanin inputs.
func (l *Library) CellFor(typ circuit.GateType, fanin int) (*Cell, error) {
	for _, v := range l.cells[typ] {
		if v.MaxFanin >= fanin {
			return v, nil
		}
	}
	return nil, fmt.Errorf("celllib %q: no cell for %v with fanin %d", l.Name, typ, fanin)
}

// Cells returns all cells in the library in deterministic order.
func (l *Library) Cells() []*Cell {
	var out []*Cell
	var types []circuit.GateType
	for t := range l.cells {
		types = append(types, t)
	}
	sort.Slice(types, func(i, j int) bool { return types[i] < types[j] })
	for _, t := range types {
		out = append(out, l.cells[t]...)
	}
	return out
}

// Default returns the built-in 1 µm CMOS-style library. Parameter ranges
// follow the figures quoted in the paper and its references: per-gate peak
// transient currents of a few hundred µA, worst-case quiescent currents of
// one to a few hundred pA per gate (the paper notes that "non defective
// IDDQ currents of large circuits can be larger than 1 µA" — thousands of
// gates at this leakage cross the 1 µA threshold, which is exactly what
// forces the partitioning), nanosecond gate delays, VDD = 5 V.
func Default() *Library {
	l := New("generic-1um-cmos", 5.0)
	// mustAdd registers one static built-in cell; the table below is
	// compile-time data, so a registration failure is a programming error
	// and panics per the project's panic policy.
	mustAdd := func(name string, fn circuit.GateType, fanin int, area, delayNS, peakUA, leakPA float64) {
		c := &Cell{
			Name:           name,
			Function:       fn,
			MaxFanin:       fanin,
			Area:           area,
			Delay:          delayNS * 1e-9,
			DelayPerFanout: 0.15e-9,
			PeakCurrent:    peakUA * 1e-6,
			LeakBase:       leakPA * 1e-12,
			LeakPerIn:      0.4 * leakPA * 1e-12 / float64(fanin),
			Cin:            8e-15 * float64(fanin),
			Cout:           20e-15 + 6e-15*float64(fanin),
			// The equivalent discharge resistance is tied to the peak
			// switching current (Rg ≈ VDD / îDD) so the §3.2 delay model
			// sees a rail perturbation consistent with the §3.1 sizing —
			// this is what keeps the delay impact of a r*-sized sensor
			// "small", as the paper observes.
			Rg: 5.0 / (peakUA * 1e-6),
		}
		if err := l.Add(c); err != nil {
			panic(err) // built-in table is static; a failure is a programming error
		}
	}
	mustAdd("BUF1", circuit.Buf, 1, 2, 1.0, 150, 84)
	mustAdd("INV1", circuit.Not, 1, 1, 0.5, 180, 70)
	mustAdd("NAND2", circuit.Nand, 2, 2, 0.8, 260, 154)
	mustAdd("NAND3", circuit.Nand, 3, 3, 1.0, 320, 210)
	mustAdd("NAND4", circuit.Nand, 4, 4, 1.2, 380, 266)
	mustAdd("NAND5", circuit.Nand, 5, 5, 1.5, 430, 322)
	mustAdd("NAND8", circuit.Nand, 8, 7, 1.9, 520, 448)
	mustAdd("NAND9", circuit.Nand, 9, 8, 2.1, 560, 504)
	mustAdd("NOR2", circuit.Nor, 2, 2, 0.9, 270, 168)
	mustAdd("NOR3", circuit.Nor, 3, 3, 1.2, 340, 224)
	mustAdd("NOR4", circuit.Nor, 4, 4, 1.4, 400, 280)
	mustAdd("NOR5", circuit.Nor, 5, 5, 1.7, 450, 336)
	mustAdd("AND2", circuit.And, 2, 3, 1.1, 300, 196)
	mustAdd("AND3", circuit.And, 3, 4, 1.3, 360, 252)
	mustAdd("AND4", circuit.And, 4, 5, 1.5, 420, 308)
	mustAdd("AND5", circuit.And, 5, 6, 1.8, 470, 364)
	mustAdd("AND8", circuit.And, 8, 8, 2.2, 560, 476)
	mustAdd("AND9", circuit.And, 9, 9, 2.4, 600, 532)
	mustAdd("OR2", circuit.Or, 2, 3, 1.2, 310, 210)
	mustAdd("OR3", circuit.Or, 3, 4, 1.4, 370, 266)
	mustAdd("OR4", circuit.Or, 4, 5, 1.6, 430, 322)
	mustAdd("OR5", circuit.Or, 5, 6, 1.9, 480, 378)
	mustAdd("XOR2", circuit.Xor, 2, 4, 1.6, 420, 336)
	mustAdd("XOR3", circuit.Xor, 3, 6, 2.1, 520, 448)
	mustAdd("XNOR2", circuit.Xnor, 2, 4, 1.6, 420, 336)
	mustAdd("XNOR3", circuit.Xnor, 3, 6, 2.1, 520, 448)
	return l
}

// Annotated binds a circuit to a library: per-gate electrical data in
// dense arrays indexed by gate ID. Primary inputs have zero entries
// (they draw no supply current).
type Annotated struct {
	Circuit *circuit.Circuit
	Library *Library

	Cell    []*Cell   // cell chosen for each gate (nil for inputs)
	Peak    []float64 // peak transient current per gate, A
	LeakMax []float64 // worst-case quiescent current per gate, A
	Delay   []float64 // loaded nominal delay D(g), s
	Cout    []float64 // parasitic at the virtual rail per gate, F
	Rg      []float64 // equivalent discharge resistance per gate, Ω
	Area    []float64 // cell area per gate
}

// Annotate maps every logic gate of c onto a library cell and extracts the
// per-gate electrical quantities used by the estimators.
func Annotate(c *circuit.Circuit, l *Library) (*Annotated, error) {
	n := c.NumGates()
	a := &Annotated{
		Circuit: c,
		Library: l,
		Cell:    make([]*Cell, n),
		Peak:    make([]float64, n),
		LeakMax: make([]float64, n),
		Delay:   make([]float64, n),
		Cout:    make([]float64, n),
		Rg:      make([]float64, n),
		Area:    make([]float64, n),
	}
	for i := range c.Gates {
		g := &c.Gates[i]
		if g.Type == circuit.Input {
			continue
		}
		cell, err := l.CellFor(g.Type, len(g.Fanin))
		if err != nil {
			return nil, fmt.Errorf("celllib: mapping gate %q: %w", g.Name, err)
		}
		a.Cell[i] = cell
		a.Peak[i] = cell.PeakCurrent
		a.LeakMax[i] = cell.LeakageMax()
		a.Delay[i] = cell.Delay + float64(len(g.Fanout))*cell.DelayPerFanout
		a.Cout[i] = cell.Cout
		a.Rg[i] = cell.Rg
		a.Area[i] = cell.Area
	}
	return a, nil
}

// TotalLeakageMax returns the worst-case fault-free IDDQ of a set of gates
// — IDDQ,nd of a module in the discriminability constraint.
func (a *Annotated) TotalLeakageMax(gates []int) float64 {
	var sum float64
	for _, g := range gates {
		sum += a.LeakMax[g]
	}
	return sum
}

// TotalArea returns the summed cell area of a set of gates.
func (a *Annotated) TotalArea(gates []int) float64 {
	var sum float64
	for _, g := range gates {
		sum += a.Area[g]
	}
	return sum
}
