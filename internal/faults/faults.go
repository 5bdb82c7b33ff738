// Package faults models the CMOS defect classes that IDDQ testing targets
// (the paper's references [1-6]): bridging faults between circuit nodes,
// gate-oxide shorts, and stuck-on transistors. Each defect, when excited
// by a test vector, creates a conducting path between the supply rails and
// raises the quiescent current far above the fault-free leakage — without
// necessarily corrupting any logic value, which is why logic testing
// misses these defects and why the BIC sensors of the paper exist.
package faults

import (
	"fmt"
	"math/rand"
	"sort"

	"iddqsyn/internal/circuit"
	"iddqsyn/internal/logicsim"
)

// Kind enumerates the defect classes.
type Kind int

// The supported IDDQ defect classes.
const (
	Bridge         Kind = iota // resistive short between two signal nets
	GateOxideShort             // short through the gate oxide of an input transistor
	StuckOn                    // transistor that never turns off
)

// String names the defect class.
func (k Kind) String() string {
	switch k {
	case Bridge:
		return "bridge"
	case GateOxideShort:
		return "gos"
	case StuckOn:
		return "stuck-on"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Fault is a single defect instance. Nets are identified by their driving
// gate ID (every net has exactly one driver in the netlist model).
type Fault struct {
	Kind Kind

	// Bridge: A and B are the two bridged nets.
	A, B int

	// GateOxideShort, StuckOn: Gate is the defective gate, Pin the fanin
	// index of the affected transistor. PMOS selects the pull-up device
	// for StuckOn faults.
	Gate int
	Pin  int
	PMOS bool

	// Current is the quiescent defect current when excited, A.
	Current float64
}

// String renders the fault for reports.
func (f *Fault) String() string {
	switch f.Kind {
	case Bridge:
		return fmt.Sprintf("bridge(%d,%d)", f.A, f.B)
	case GateOxideShort:
		return fmt.Sprintf("gos(g%d.%d)", f.Gate, f.Pin)
	case StuckOn:
		dev := "n"
		if f.PMOS {
			dev = "p"
		}
		return fmt.Sprintf("stuck-on(g%d.%d,%s)", f.Gate, f.Pin, dev)
	}
	return "fault(?)"
}

// Excited reports whether the settled state in values activates the
// defect's conducting path, and if so which gate's ground path carries the
// defect current — the gate whose BIC-sensor module observes the elevated
// IDDQ. Unknown (X) values never excite a fault (conservative).
//
// Excitation conditions:
//   - Bridge: the two nets settle to opposite values; the current flows
//     through the pull-down of the low net's driver.
//   - Gate-oxide short: the affected input is high, shorting through the
//     oxide into the channel/source of the gate's own transistor stack.
//   - Stuck-on nMOS: the gate output is high, so the stuck-on pull-down
//     fights the active pull-up. Stuck-on pMOS: output low, symmetric.
func (f *Fault) Excited(c *circuit.Circuit, values []logicsim.Value) (observer int, excited bool) {
	switch f.Kind {
	case Bridge:
		va, vb := values[f.A], values[f.B]
		if va == logicsim.X || vb == logicsim.X || va == vb {
			return 0, false
		}
		if va == logicsim.Zero {
			return f.A, true
		}
		return f.B, true
	case GateOxideShort:
		pin := c.Gates[f.Gate].Fanin[f.Pin]
		if values[pin] == logicsim.One {
			return f.Gate, true
		}
		return 0, false
	case StuckOn:
		v := values[f.Gate]
		if v == logicsim.X {
			return 0, false
		}
		if f.PMOS == (v == logicsim.Zero) {
			return f.Gate, true
		}
		return 0, false
	}
	return 0, false
}

// ExcitedWord evaluates the excitation condition across the 64 patterns of
// a parallel simulation batch, returning a bitmask of exciting patterns.
func (f *Fault) ExcitedWord(c *circuit.Circuit, p *logicsim.Parallel) uint64 {
	switch f.Kind {
	case Bridge:
		return p.Word(f.A) ^ p.Word(f.B)
	case GateOxideShort:
		return p.Word(c.Gates[f.Gate].Fanin[f.Pin])
	case StuckOn:
		if f.PMOS {
			return ^p.Word(f.Gate)
		}
		return p.Word(f.Gate)
	}
	return 0
}

// Observer returns the gate whose module observes the defect current under
// pattern k of a parallel batch. Call only for patterns where ExcitedWord
// has the bit set.
func (f *Fault) Observer(c *circuit.Circuit, p *logicsim.Parallel, k int) int {
	if f.Kind != Bridge {
		return f.Gate
	}
	if p.PatternValue(f.A, k) {
		return f.B // A high, B low: current through B's pull-down
	}
	return f.A
}

// Config sets the defect-current magnitudes and the bridge enumeration
// policy of the fault-list extractor.
type Config struct {
	VDD            float64 // supply voltage, V
	BridgeRes      float64 // nominal bridge resistance, Ω
	GOSCurrent     float64 // gate-oxide short current, A
	StuckOnCurrent float64 // stuck-on contention current, A
	// BridgeHops bounds the undirected distance between the drivers of a
	// candidate bridged net pair: without layout data, logical proximity
	// is the standard proxy for physical adjacency.
	BridgeHops int
	// MaxBridges caps the enumerated bridge list (0 = unlimited); the
	// excess is sampled uniformly with rng for reproducibility.
	MaxBridges int
}

// DefaultConfig returns defect parameters typical of the paper's
// technology: a 5 V supply, kilo-ohm bridges (≈1 mA defect currents —
// 10^6 times the per-gate leakage).
func DefaultConfig() Config {
	return Config{
		VDD:            5.0,
		BridgeRes:      5e3,
		GOSCurrent:     400e-6,
		StuckOnCurrent: 700e-6,
		BridgeHops:     3,
		MaxBridges:     0,
	}
}

// ExtractBridges enumerates bridging faults between nets whose drivers
// are within cfg.BridgeHops in the undirected circuit graph. Pairs are
// returned in deterministic order; if cfg.MaxBridges > 0 the list is
// down-sampled with rng.
func ExtractBridges(c *circuit.Circuit, cfg Config, rng *rand.Rand) []Fault {
	var out []Fault
	var hs circuit.HopScratch
	var near, hops []int32
	for _, g := range c.LogicGates() {
		near, hops = c.AppendWithinHops(&hs, g, cfg.BridgeHops, near[:0], hops[:0])
		for _, nb := range near {
			if int(nb) > g { // each unordered pair once
				out = append(out, Fault{
					Kind: Bridge, A: g, B: int(nb),
					Current: cfg.VDD / cfg.BridgeRes,
				})
			}
		}
	}
	if cfg.MaxBridges > 0 && len(out) > cfg.MaxBridges {
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		out = out[:cfg.MaxBridges]
		sort.Slice(out, func(i, j int) bool {
			if out[i].A != out[j].A {
				return out[i].A < out[j].A
			}
			return out[i].B < out[j].B
		})
	}
	return out
}

// ExtractGateOxideShorts enumerates one gate-oxide short per gate input
// pin.
func ExtractGateOxideShorts(c *circuit.Circuit, cfg Config) []Fault {
	var out []Fault
	for _, g := range c.LogicGates() {
		for pin := range c.Gates[g].Fanin {
			out = append(out, Fault{
				Kind: GateOxideShort, Gate: g, Pin: pin,
				Current: cfg.GOSCurrent,
			})
		}
	}
	return out
}

// ExtractStuckOn enumerates stuck-on faults for the nMOS and pMOS device
// of every gate input pin.
func ExtractStuckOn(c *circuit.Circuit, cfg Config) []Fault {
	var out []Fault
	for _, g := range c.LogicGates() {
		for pin := range c.Gates[g].Fanin {
			for _, pmos := range []bool{false, true} {
				out = append(out, Fault{
					Kind: StuckOn, Gate: g, Pin: pin, PMOS: pmos,
					Current: cfg.StuckOnCurrent,
				})
			}
		}
	}
	return out
}

// Universe enumerates the complete fault list for the circuit under cfg.
func Universe(c *circuit.Circuit, cfg Config, rng *rand.Rand) []Fault {
	var out []Fault
	out = append(out, ExtractBridges(c, cfg, rng)...)
	out = append(out, ExtractGateOxideShorts(c, cfg)...)
	out = append(out, ExtractStuckOn(c, cfg)...)
	return out
}
