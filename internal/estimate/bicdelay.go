package estimate

import (
	"math"

	"iddqsyn/internal/celllib"
	"iddqsyn/internal/circuit"
)

// sweepDAG is the circuit flattened for the D_BIC longest-path sweep:
// gates are numbered by their position in the topological order, and the
// fanin and fanout lists hold positions. Arrival-time, delay and mark
// vectors are indexed by position too, so a sweep walks them front to
// back.
type sweepDAG struct {
	pos     []int32   // gate ID -> position
	nominal []float64 // nominal delay D(g) per position; 0 for primary inputs
	// CSR adjacency: the fanins of position i are fanin[faninOff[i]:
	// faninOff[i+1]], likewise for fanouts.
	faninOff, fanin   []int32
	fanoutOff, fanout []int32
	lastFanout        []int32 // the latest fanout position of each position; -1 for none
	// sinks lists the fanout-free positions in ascending order. Every delay
	// is non-negative, so a position with fanouts never arrives later than
	// its fanouts, and the worst arrival over all positions is the worst
	// over these.
	sinks []int32
}

func newSweepDAG(a *celllib.Annotated) sweepDAG {
	c := a.Circuit
	order := c.TopoOrder()
	n := len(order)
	d := sweepDAG{
		pos:        make([]int32, n),
		nominal:    make([]float64, n),
		faninOff:   make([]int32, 0, n+1),
		fanoutOff:  make([]int32, 0, n+1),
		lastFanout: make([]int32, n),
	}
	for i, g := range order {
		d.pos[g] = int32(i)
	}
	for i, g := range order {
		gate := &c.Gates[g]
		if gate.Type != circuit.Input {
			d.nominal[i] = a.Delay[g]
		}
		d.faninOff = append(d.faninOff, int32(len(d.fanin)))
		for _, f := range gate.Fanin {
			d.fanin = append(d.fanin, d.pos[f])
		}
		d.fanoutOff = append(d.fanoutOff, int32(len(d.fanout)))
		last := int32(-1)
		for _, f := range gate.Fanout {
			d.fanout = append(d.fanout, d.pos[f])
			last = max(last, d.pos[f])
		}
		d.lastFanout[i] = last
		if last < 0 {
			d.sinks = append(d.sinks, int32(i))
		}
	}
	d.faninOff = append(d.faninOff, int32(len(d.fanin)))
	d.fanoutOff = append(d.fanoutOff, int32(len(d.fanout)))
	return d
}

// sweep is the longest-path sweep behind the nominal delay, BICDelay and
// UpdateBICDelay. It walks positions from through last and recomputes the
// arrival time of every marked one — the latest fanin arrival plus its
// delay, so 0 for a primary input — clearing its mark. When a recomputed
// arrival differs bitwise from the stored one, its fanouts, which come
// later in the order, are marked, and last extends to the latest of them.
// mark == nil marks every position from through last; over arbitrary
// arrival contents that is a full sweep only with from = 0 and last the
// final position. It returns the number of positions recomputed.
func (d *sweepDAG) sweep(delay, arrival []float64, from, last int, mark []bool) int {
	gates := 0
	for i := from; i <= last; i++ {
		if mark != nil {
			if !mark[i] {
				continue
			}
			mark[i] = false
		}
		gates++
		var in float64
		for _, f := range d.fanin[d.faninOff[i]:d.faninOff[i+1]] {
			if arrival[f] > in {
				in = arrival[f]
			}
		}
		at := in + delay[i]
		if math.Float64bits(at) == math.Float64bits(arrival[i]) {
			continue
		}
		arrival[i] = at
		if mark != nil {
			for _, f := range d.fanout[d.fanoutOff[i]:d.fanoutOff[i+1]] {
				mark[f] = true
			}
			last = max(last, int(d.lastFanout[i]))
		}
	}
	return gates
}

// worst returns the latest arrival time, taken over the fanout-free
// positions only (see sinks).
func (d *sweepDAG) worst(arrival []float64) float64 {
	var worst float64
	for _, i := range d.sinks {
		if at := arrival[i]; at > worst {
			worst = at
		}
	}
	return worst
}

// BICDelay returns D_BIC: the longest-path delay with every gate's delay
// degraded by δ(g, t) of §3.2. moduleOf maps each gate ID to its module
// index (inputs may carry any value); mods holds the corresponding module
// estimates, whose Delay fields carry the degraded gate delays (see
// FinishModule). A gate that moduleOf maps to no estimate keeps its
// nominal delay.
func (e *Estimator) BICDelay(moduleOf []int, mods []*Module) float64 {
	sc := e.getScratch()
	defer e.scratch.Put(sc)
	copy(sc.delay, e.dag.nominal)
	for mi, m := range mods {
		if m == nil {
			continue
		}
		for i, g := range m.Gates {
			if moduleOf[g] == mi {
				sc.delay[e.dag.pos[g]] = m.Delay[i]
			}
		}
	}
	e.sweep(sc, sc.arrival, 0, len(sc.arrival)-1, nil)
	return e.dag.worst(sc.arrival)
}

// UpdateBICDelay is BICDelay for a caller that keeps the arrival times
// between evaluations, over a partition: mods are the estimates, made by
// FinishModule, of disjoint gate groups that cover every logic gate.
// arrival (one entry per gate, indexed by sweep position) holds the
// arrival times under the module estimates as they were before the
// modules listed in touched changed; it is updated in place to the
// arrival times under mods. UpdateBICDelay returns D_BIC.
//
// Only the touched modules' gates, and the gates downstream whose fanin
// arrival then changes, are recomputed; when the touched gates are dense,
// every gate from the first of them on is. An unrecomputed gate has an
// unchanged delay and unchanged fanin arrivals, and the worst arrival is
// a maximum over the same values, so the result is bit-identical to a
// full sweep. touched == nil means arrival holds nothing valid: every
// gate is recomputed.
func (e *Estimator) UpdateBICDelay(arrival []float64, mods []*Module, touched []int) float64 {
	sc := e.getScratch()
	defer e.scratch.Put(sc)
	var mark []bool
	from, last := 0, len(arrival)-1
	if touched != nil {
		from = len(arrival)
		seeds := 0
		for _, mi := range touched {
			for _, g := range mods[mi].Gates {
				from = min(from, int(e.dag.pos[g]))
			}
			seeds += len(mods[mi].Gates)
		}
		// Dense seeds reach most positions after the first of them, where
		// recomputing every position costs less than tracking marks.
		if seeds*8 < len(arrival)-from {
			mark, last = sc.mask, -1
			for _, mi := range touched {
				for _, g := range mods[mi].Gates {
					p := int(e.dag.pos[g])
					mark[p] = true
					last = max(last, p)
				}
			}
		}
	}
	// The sweep reads no delay before from, so a module that ends there
	// is not scattered. The modules cover every logic gate, and nothing
	// writes a primary input's position of sc.delay except BICDelay's
	// nominal copy, which holds 0 there, so no nominal copy is needed.
	for _, m := range mods {
		if int(m.lastPos) < from {
			continue
		}
		for i, g := range m.Gates {
			sc.delay[e.dag.pos[g]] = m.Delay[i]
		}
	}
	e.sweep(sc, arrival, from, last, mark)
	return e.dag.worst(arrival)
}

// sweep runs the D_BIC sweep over sc.delay and counts it.
func (e *Estimator) sweep(sc *evalScratch, arrival []float64, from, last int, mark []bool) {
	gates := e.dag.sweep(sc.delay, arrival, from, last, mark)
	if e.bicSweeps != nil {
		e.bicSweeps.Inc()
		e.bicGates.Add(uint64(gates))
	}
}
