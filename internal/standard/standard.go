// Package standard implements the non-evolutionary partitioning pieces of
// the paper: the chain-based start-partition constructor of §4.2, the
// average-parameter module-size estimator used to seed it, and the greedy
// "standard partitioning" of §5 that serves as the baseline the evolution
// algorithm is compared against in Table 1.
package standard

import (
	"cmp"
	"math"
	"math/rand"
	"slices"

	"iddqsyn/internal/circuit"
	"iddqsyn/internal/estimate"
	"iddqsyn/internal/partition"
)

// EstimateModuleSize implements the §4.2 pre-pass: "first the appropriate
// module size is estimated ... by evaluating c₁ and c₂ by average numbers
// for the required parameters and by abstraction from structural
// information". It scans candidate sizes with a fully averaged model —
// every gate carries the mean peak current, leakage, resistance and
// capacitance, and a module of size s switches with the circuit's mean
// simultaneity — and returns the size minimising the averaged weighted
// cost, never exceeding the largest size the discriminability constraint
// d(M) ≥ d allows.
func EstimateModuleSize(e *estimate.Estimator, w partition.Weights, cons partition.Constraints) int {
	c := e.A.Circuit
	logic := c.LogicGates()
	n := len(logic)
	if n == 0 {
		return 1
	}
	var peakSum, leakSum, rgSum, coutSum, delaySum float64
	for _, g := range logic {
		peakSum += e.A.Peak[g]
		leakSum += e.A.LeakMax[g]
		rgSum += e.A.Rg[g]
		coutSum += e.A.Cout[g]
		delaySum += e.A.Delay[g]
	}
	fn := float64(n)
	peakAvg, leakAvg := peakSum/fn, leakSum/fn
	rgAvg, coutAvg, delayAvg := rgSum/fn, coutSum/fn, delaySum/fn

	// Mean simultaneity: what fraction of a group switches at the worst
	// grid instant, estimated from the whole circuit's activity profile.
	prof := e.TS.ActivityProfile(logic)
	maxAct := 0
	for _, v := range prof {
		if v > maxAct {
			maxAct = v
		}
	}
	phi := float64(maxAct) / fn
	if phi <= 0 {
		phi = 1 / fn
	}

	// The discriminability constraint caps the module size:
	// s·leakAvg ≤ IDDQ,th / d. A leak-free library imposes no cap; the
	// comparison runs in floating point so an infinite or out-of-range
	// bound is never converted to int.
	sMax := n
	if limit := e.P.IDDQth / (cons.MinDiscriminability * leakAvg); leakAvg > 0 && limit < float64(n) {
		sMax = int(math.Max(limit, 1))
	}

	best, bestCost := 1, math.Inf(1)
	for s := 1; s <= sMax; s++ {
		fs := float64(s)
		k := math.Ceil(fn / fs)
		iMax := phi * fs * peakAvg // averaged îDD,max of one module
		if iMax <= 0 {
			continue
		}
		rs := e.P.RailLimit / iMax
		area := k * (e.P.AreaA0 + e.P.AreaA1/rs)
		cs := e.P.CsSensor + fs*coutAvg
		nAct := phi * fs
		if nAct < 1 {
			nAct = 1
		}
		damp := 1 - math.Exp(-delayAvg/(rs*cs))
		c2 := nAct * rs / rgAvg * damp // averaged per-stage degradation ≈ overhead
		cost := w.Area*math.Log1p(area) + w.Delay*c2 + w.Modules*k
		if cost < bestCost {
			bestCost = cost
			best = s
		}
	}
	return best
}

// ChainStartPartition builds one §4.2 start partition: beginning at gates
// close to the primary inputs, chains are grown towards a primary output.
// A chain stops when it reaches a primary output, no free successor
// remains, or the maximum module size is reached. Because the evolution
// operators can merge but never create modules, a module keeps absorbing
// fresh chains (restarted from a free gate adjacent to it) until it
// reaches the target size, so the start population already has the module
// granularity the size estimator asked for. Chains are formed while free
// gates remain; different rng streams produce the different start
// partitions of the start population.
func ChainStartPartition(c *circuit.Circuit, maxModuleSize int, rng *rand.Rand) [][]int {
	if maxModuleSize < 1 {
		maxModuleSize = 1
	}
	order := nearInputsFirst(c)
	free := make([]bool, c.NumGates())
	for _, g := range order {
		free[g] = true
	}

	var groups [][]int
	var nexts []int
	for _, start := range order {
		if !free[start] {
			continue
		}
		module := []int{start}
		free[start] = false
		cur := start
		for len(module) < maxModuleSize {
			nexts = nexts[:0]
			if !c.IsOutput(cur) {
				for _, f := range c.Gates[cur].Fanout {
					if free[f] {
						nexts = append(nexts, f)
					}
				}
			}
			if len(nexts) == 0 {
				// Chain ended (primary output or no free successor):
				// restart from a free gate adjacent to the module so the
				// module stays connected.
				nexts = adjacentFree(nexts, c, module, free)
				if len(nexts) == 0 {
					break
				}
			}
			cur = nexts[rng.Intn(len(nexts))]
			free[cur] = false
			module = append(module, cur)
		}
		slices.Sort(module)
		groups = append(groups, module)
	}
	return groups
}

// nearInputsFirst returns the logic gates ordered by level, lowest ID
// first within a level: the order in which both constructors pick the gate
// "as near to a primary input as possible" that starts a module.
func nearInputsFirst(c *circuit.Circuit) []int {
	levels := c.Levels()
	order := c.LogicGates()
	slices.SortFunc(order, func(a, b int) int {
		return cmp.Or(cmp.Compare(levels[a], levels[b]), cmp.Compare(a, b))
	})
	return order
}

// adjacentFree lists the free gates directly connected to the module,
// ascending and without duplicates, in buf's storage.
func adjacentFree(buf []int, c *circuit.Circuit, module []int, free []bool) []int {
	dst := buf[:0]
	for _, g := range module {
		for _, nb := range c.Neighbors(g) {
			if free[nb] {
				dst = append(dst, nb)
			}
		}
	}
	slices.Sort(dst)
	return slices.Compact(dst)
}

// StandardPartition implements the §5 baseline: "the process starts with
// a gate as near to a primary input as possible. New gates are added
// until a specified size of the module is generated. The new gate added
// is that gate whose path length to all the gates already clustered gives
// a minimum sum. If there are multiple choices, a gate of this set is
// selected such that the path lengths to all the gates not yet clustered
// give a maximum sum." Path lengths are undirected hop distances capped
// at ρ (unreachable pairs count ρ), matching the separation parameter, so
// the estimator's ρ-hop neighbourhoods hold every distance needed.
//
// The capped distances from g to a set X sum to ρ·|X| − Σ (ρ − d) over the
// members of X within ρ hops of g, and ρ·|X| is common to every candidate.
// So the minimum sum to the module is the maximum nearness
// near[g] = Σ_{clustered c, g ∈ N_ρ(c)} (ρ − d), and the maximum sum to the
// other free gates is the minimum nearness to them.
func StandardPartition(e *estimate.Estimator, moduleSize int) [][]int {
	if moduleSize < 1 {
		moduleSize = 1
	}
	c := e.A.Circuit
	order := nearInputsFirst(c)
	free := make([]bool, c.NumGates())
	for _, g := range order {
		free[g] = true
	}
	near := make([]int, c.NumGates())

	var groups [][]int
	for _, start := range order {
		if !free[start] {
			continue
		}
		clear(near)
		var module []int
		for g := start; g >= 0; g = closest(e, free, near) {
			free[g] = false
			module = append(module, g)
			if len(module) == moduleSize {
				break
			}
			gates, dists := e.Neighborhood(g)
			for i, h := range gates {
				if free[h] {
					near[h] += e.P.Rho - int(dists[i])
				}
			}
		}
		slices.Sort(module)
		groups = append(groups, module)
	}
	return groups
}

// closest returns the free gate with the maximum nearness to the module,
// breaking ties by the minimum nearness to the other free gates and then
// by the lowest ID; -1 when no gate is free.
func closest(e *estimate.Estimator, free []bool, near []int) int {
	maxNear := -1
	for g, ok := range free {
		if ok && near[g] > maxNear {
			maxNear = near[g]
		}
	}
	best, minFar := -1, 0
	for g, ok := range free {
		if !ok || near[g] != maxNear {
			continue
		}
		far := 0
		gates, dists := e.Neighborhood(g)
		for i, h := range gates {
			if free[h] {
				far += e.P.Rho - int(dists[i])
			}
		}
		if best < 0 || far < minFar {
			best, minFar = g, far
		}
	}
	return best
}

// StandardPartitionK runs StandardPartition with the module size that
// yields (approximately) k modules — Table 1 compares the methods at the
// module counts found by the evolution algorithm ("in our case we take
// the numbers obtained by the evolution based algorithm").
func StandardPartitionK(e *estimate.Estimator, k int) [][]int {
	n := e.A.Circuit.NumLogicGates()
	if k < 1 {
		k = 1
	}
	size := (n + k - 1) / k
	return StandardPartition(e, size)
}
