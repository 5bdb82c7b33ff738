// Package seq adds full-scan sequential designs to the synthesis flow.
// The paper's virtual-rail constraint exists partly because "circuits
// with memory elements may loose the memorized information" under rail
// perturbation (§3.1); this package models the standard DFT setting in
// which that matters: an ISCAS89-class sequential circuit whose flip-flops
// are all on a scan chain.
//
// Under full scan, every flip-flop output is controllable (a
// pseudo-primary input of the combinational core) and every flip-flop
// data input observable (a pseudo-primary output), so the IDDQ
// partitioning, ATPG and sensor sizing of the rest of this repository
// apply to the core unchanged. What changes is the test economics: each
// vector costs a scan-load of ChainLength clock cycles, which this
// package folds into the §3.4 test-application-time model, and the scan
// chain itself is wiring whose length the chain-ordering optimizer here
// minimises with the same separation metric as the partitioner.
package seq

import (
	"fmt"
	"slices"
	"sort"

	"iddqsyn/internal/circuit"
)

// FF is one scan flip-flop: its output drives PPI (an input gate of the
// combinational core) and its data input is driven by PPO (a core gate
// marked as output).
type FF struct {
	Name string
	PPI  int // gate ID of the core input this FF's Q drives
	PPO  int // gate ID of the core gate feeding this FF's D
}

// Sequential is a full-scan sequential design.
type Sequential struct {
	Name string
	Comb *circuit.Circuit // the combinational core
	FFs  []FF

	ppiSet map[int]bool
	ppoSet map[int]bool
}

// New assembles a Sequential from a combinational core and its flip-flop
// bindings. Every PPI must be a primary input of the core and every PPO
// one of its output-marked gates; a gate may serve several FFs' PPO but a
// PPI binds to exactly one FF.
func New(name string, comb *circuit.Circuit, ffs []FF) (*Sequential, error) {
	s := &Sequential{
		Name: name, Comb: comb, FFs: ffs,
		ppiSet: make(map[int]bool, len(ffs)),
		ppoSet: make(map[int]bool, len(ffs)),
	}
	isInput := make(map[int]bool, len(comb.Inputs))
	for _, id := range comb.Inputs {
		isInput[id] = true
	}
	isOutput := make(map[int]bool, len(comb.Outputs))
	for _, id := range comb.Outputs {
		isOutput[id] = true
	}
	for _, ff := range ffs {
		if !isInput[ff.PPI] {
			return nil, fmt.Errorf("seq: FF %q: PPI gate %d is not a core input", ff.Name, ff.PPI)
		}
		if s.ppiSet[ff.PPI] {
			return nil, fmt.Errorf("seq: FF %q: PPI gate %d bound twice", ff.Name, ff.PPI)
		}
		if !isOutput[ff.PPO] {
			return nil, fmt.Errorf("seq: FF %q: PPO gate %d is not output-marked", ff.Name, ff.PPO)
		}
		s.ppiSet[ff.PPI] = true
		s.ppoSet[ff.PPO] = true
	}
	return s, nil
}

// NumFFs returns the scan-chain length.
func (s *Sequential) NumFFs() int { return len(s.FFs) }

// PrimaryInputs returns the true primary inputs (core inputs that are not
// flip-flop outputs), in core order.
func (s *Sequential) PrimaryInputs() []int {
	var out []int
	for _, id := range s.Comb.Inputs {
		if !s.ppiSet[id] {
			out = append(out, id)
		}
	}
	return out
}

// PrimaryOutputs returns the true primary outputs (output-marked gates
// that do not feed a flip-flop), in core order. A gate both observed and
// feeding an FF counts as a primary output.
func (s *Sequential) PrimaryOutputs() []int {
	var out []int
	for _, id := range s.Comb.Outputs {
		if !s.ppoSet[id] {
			out = append(out, id)
		}
	}
	return out
}

// IsPPI reports whether a core input is a flip-flop output.
func (s *Sequential) IsPPI(id int) bool { return s.ppiSet[id] }

// IsPPO reports whether an output-marked gate feeds a flip-flop.
func (s *Sequential) IsPPO(id int) bool { return s.ppoSet[id] }

// String summarises the design.
func (s *Sequential) String() string {
	return fmt.Sprintf("%s: %d PIs, %d POs, %d FFs, %d gates, depth %d",
		s.Name, len(s.PrimaryInputs()), len(s.PrimaryOutputs()),
		len(s.FFs), s.Comb.NumLogicGates(), s.Comb.Depth())
}

// ScanOrder is a visiting order of the flip-flops plus its estimated
// wiring length: the sum of capped hop distances between consecutive
// FFs (each FF located at its PPO driver gate), the same separation
// metric as §3.3.
type ScanOrder struct {
	Order  []int // indices into Sequential.FFs
	Length int
}

// OrderScanChain orders the scan chain with a nearest-neighbour heuristic
// over the FF locations (greedy chaining from the FF nearest a primary
// input), bounded by rho like the separation parameter. It returns the
// optimized order and, for comparison, the declaration order's length.
func OrderScanChain(s *Sequential, rho int) (optimized ScanOrder, declared ScanOrder) {
	n := len(s.FFs)
	if n == 0 {
		return
	}
	if rho < 1 {
		rho = 1
	}
	// Pairwise capped distances between FF locations. Two FFs driven by
	// the same gate are at distance 0.
	dist := make([][]int, n)
	var hs circuit.HopScratch
	var near, hops []int32
	for i := range dist {
		dist[i] = make([]int, n)
		src := s.FFs[i].PPO
		near, hops = s.Comb.AppendWithinHops(&hs, src, rho, near[:0], hops[:0])
		for j := range dist {
			if k, ok := slices.BinarySearch(near, int32(s.FFs[j].PPO)); ok {
				dist[i][j] = int(hops[k])
			} else if s.FFs[j].PPO != src {
				dist[i][j] = rho
			}
		}
	}

	length := func(order []int) int {
		sum := 0
		for k := 1; k < len(order); k++ {
			sum += dist[order[k-1]][order[k]]
		}
		return sum
	}

	declared.Order = make([]int, n)
	for i := range declared.Order {
		declared.Order[i] = i
	}
	declared.Length = length(declared.Order)

	// Start from the FF whose location is at the lowest level (nearest
	// the inputs, where the scan-in pad would sit); tie-break on index.
	levels := s.Comb.Levels()
	start := 0
	for i := 1; i < n; i++ {
		if levels[s.FFs[i].PPO] < levels[s.FFs[start].PPO] {
			start = i
		}
	}
	used := make([]bool, n)
	order := []int{start}
	used[start] = true
	for len(order) < n {
		cur := order[len(order)-1]
		best, bestD := -1, 0
		for j := 0; j < n; j++ {
			if used[j] {
				continue
			}
			if best == -1 || dist[cur][j] < bestD {
				best, bestD = j, dist[cur][j]
			}
		}
		used[best] = true
		order = append(order, best)
	}
	optimized.Order = order
	optimized.Length = length(order)
	return optimized, declared
}

// ScanTestTime extends the §3.4 test-application-time model to full scan:
// each vector costs a scan load of ChainLength shift cycles at the scan
// clock period, then the settled-logic time D_BIC plus the slowest
// sensor's settling. (Scan-out of the previous response overlaps the next
// scan-in, the standard overlap.)
func ScanTestTime(nVectors, chainLength int, scanClock, dBIC, settle float64) (float64, error) {
	if nVectors < 1 || chainLength < 0 {
		return 0, fmt.Errorf("seq: bad vector/chain counts")
	}
	if scanClock <= 0 || dBIC <= 0 || settle < 0 {
		return 0, fmt.Errorf("seq: non-positive times")
	}
	perVector := float64(chainLength)*scanClock + dBIC + settle
	return float64(nVectors) * perVector, nil
}

// sortFFsByName normalises FF order for deterministic serialisation.
func sortFFsByName(ffs []FF) {
	sort.Slice(ffs, func(i, j int) bool { return ffs[i].Name < ffs[j].Name })
}
