// Package bic models the Built-In Current sensor of the paper's figure 1
// — a sensing device in the module's ground path, a bypass MOS switch
// sized from the virtual-rail perturbation limit, and detection circuitry
// comparing the sensed quiescent current against IDDQ,th — together with a
// chip-level view that applies test vectors to a partitioned circuit,
// injects defects, and produces the per-module PASS/FAIL outcomes. A chip
// is built from module estimates, one per module, so a synthesis sizes
// its sensors from the estimates it has already audited instead of
// evaluating every module again.
package bic

import (
	"fmt"

	"iddqsyn/internal/celllib"
	"iddqsyn/internal/circuit"
	"iddqsyn/internal/estimate"
	"iddqsyn/internal/faults"
	"iddqsyn/internal/logicsim"
)

// Sensor is one sized BIC sensor instance guarding a module.
type Sensor struct {
	Module    int     // module index
	ROn       float64 // bypass MOS ON resistance, Ω
	Area      float64 // layout area, abstract units (A0 + A1/ROn)
	Cs        float64 // parasitic capacitance at the virtual rail, F
	Tau       float64 // sensing time constant ROn·Cs, s
	Settle    float64 // transient decay + sensing time Δ(τ), s
	Threshold float64 // detection threshold IDDQ,th, A
	RailLimit float64 // guaranteed maximum rail perturbation r*, V
	IDDMax    float64 // module transient current the sizing assumed, A
}

// Size creates the sensor for a module estimate under the given estimator
// parameters.
func Size(moduleIdx int, m *estimate.Module, p estimate.Params) Sensor {
	return Sensor{
		Module:    moduleIdx,
		ROn:       m.Rs,
		Area:      m.SensorArea,
		Cs:        m.Cs,
		Tau:       m.Tau,
		Settle:    m.Settle,
		Threshold: p.IDDQth,
		RailLimit: p.RailLimit,
		IDDMax:    m.IDDMax,
	}
}

// Evaluate implements the detection circuitry: once the bypass switch
// opens (control C = 0 in figure 1), the sensing device converts the
// module's quiescent current to a voltage and the comparator raises FAIL
// when the current is at or above the threshold. It returns true for
// PASS.
func (s *Sensor) Evaluate(iddq float64) bool {
	return iddq < s.Threshold
}

// String renders the sensor for reports.
func (s *Sensor) String() string {
	return fmt.Sprintf("sensor[M%d]: Ron=%.2gΩ area=%.4g Cs=%.3gF τ=%.3gs Δ=%.3gs",
		s.Module, s.ROn, s.Area, s.Cs, s.Tau, s.Settle)
}

// Chip is a partitioned circuit with one sized BIC sensor per module: the
// complete IDDQ-testable design the synthesis flow produces.
type Chip struct {
	Circuit   *circuit.Circuit
	Annotated *celllib.Annotated
	Partition [][]int // module index -> gate IDs
	Sensors   []Sensor
	moduleOf  []int // gate ID -> module index (-1 for inputs)
	sim       *logicsim.Simulator
}

// NewChip builds the chip view for a partition given as its module
// estimates, one per module in module order, and sizes each module's
// sensor from its estimate (Size). The modules are the estimates' gate
// sets, which the chip shares. A caller holding a synthesized partition
// passes the estimates it already has; a caller holding only gate groups
// evaluates them first (estimate.Estimator.EvalModule).
func NewChip(a *celllib.Annotated, mods []*estimate.Module, p estimate.Params) (*Chip, error) {
	c := a.Circuit
	partition := make([][]int, len(mods))
	for mi, m := range mods {
		partition[mi] = m.Gates
	}
	moduleOf := make([]int, c.NumGates())
	for i := range moduleOf {
		moduleOf[i] = -1
	}
	covered := 0
	for mi, gates := range partition {
		if len(gates) == 0 {
			return nil, fmt.Errorf("bic: module %d is empty", mi)
		}
		for _, g := range gates {
			if g < 0 || g >= c.NumGates() {
				return nil, fmt.Errorf("bic: module %d: gate %d out of range", mi, g)
			}
			if c.Gates[g].Type == circuit.Input {
				return nil, fmt.Errorf("bic: module %d contains primary input %q", mi, c.Gates[g].Name)
			}
			if moduleOf[g] != -1 {
				return nil, fmt.Errorf("bic: gate %q in two modules", c.Gates[g].Name)
			}
			moduleOf[g] = mi
			covered++
		}
	}
	if covered != c.NumLogicGates() {
		return nil, fmt.Errorf("bic: partition covers %d of %d gates", covered, c.NumLogicGates())
	}
	ch := &Chip{
		Circuit:   c,
		Annotated: a,
		Partition: partition,
		Sensors:   make([]Sensor, len(partition)),
		moduleOf:  moduleOf,
		sim:       logicsim.New(c),
	}
	for mi, m := range mods {
		ch.Sensors[mi] = Size(mi, m, p)
	}
	return ch, nil
}

// ModuleOf returns the module index of a logic gate (-1 for inputs).
func (ch *Chip) ModuleOf(gate int) int { return ch.moduleOf[gate] }

// Reading is the outcome of one module's IDDQ measurement for one vector.
type Reading struct {
	Module int
	IDDQ   float64 // sensed quiescent current, A
	Pass   bool
}

// ApplyVector runs one IDDQ test cycle (figure 1's sequencing): the vector
// is applied with the bypass closed, the transient decays for the slowest
// module's settling time, the bypass opens and every sensor measures its
// module's quiescent current — the fault-free state-dependent leakage plus
// the current of any injected defect excited by this vector.
func (ch *Chip) ApplyVector(vec []bool, injected []faults.Fault) ([]Reading, error) {
	if err := ch.sim.ApplyBits(vec); err != nil {
		return nil, err
	}
	readings := make([]Reading, len(ch.Partition))
	for mi, gates := range ch.Partition {
		readings[mi] = Reading{
			Module: mi,
			IDDQ:   ch.sim.FaultFreeIDDQ(ch.Annotated, gates),
		}
	}
	for fi := range injected {
		f := &injected[fi]
		if obs, excited := f.Excited(ch.Circuit, ch.sim.Values()); excited {
			mi := ch.moduleOf[obs]
			if mi >= 0 {
				readings[mi].IDDQ += f.Current
			}
		}
	}
	for mi := range readings {
		readings[mi].Pass = ch.Sensors[mi].Evaluate(readings[mi].IDDQ)
	}
	return readings, nil
}

// RunTest applies a vector set against an injected defect and reports
// whether any sensor ever fails (defect detected), plus the first failing
// (vector, module) pair.
func (ch *Chip) RunTest(vectors [][]bool, injected []faults.Fault) (detected bool, vector, module int, err error) {
	for vi, v := range vectors {
		readings, err := ch.ApplyVector(v, injected)
		if err != nil {
			return false, 0, 0, err
		}
		for _, r := range readings {
			if !r.Pass {
				return true, vi, r.Module, nil
			}
		}
	}
	return false, 0, 0, nil
}

// TotalSensorArea sums the sensor areas — the quantity Table 1 compares
// between partitioning methods.
func (ch *Chip) TotalSensorArea() float64 {
	var sum float64
	for i := range ch.Sensors {
		sum += ch.Sensors[i].Area
	}
	return sum
}
