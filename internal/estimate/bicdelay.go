package estimate

import (
	"math"

	"iddqsyn/internal/celllib"
	"iddqsyn/internal/circuit"
)

// sweepDAG is the circuit flattened for the D_BIC longest-path sweep:
// gates are numbered by their position in the topological order, and the
// fanin and fanout lists hold positions. Arrival-time and mark vectors are
// indexed by position too, so a sweep walks them front to back; delay
// vectors are indexed by gate ID, so the modules' delays scatter into them
// in ascending order.
type sweepDAG struct {
	pos     []int32   // gate ID -> position
	gate    []int32   // position -> gate ID
	nominal []float64 // nominal delay D(g) per gate ID; 0 for primary inputs
	// CSR adjacency: the fanins of position i are fanin[faninOff[i]:
	// faninOff[i+1]], likewise for fanouts.
	faninOff, fanin   []int32
	fanoutOff, fanout []int32
	lastFanout        []int32 // the latest fanout position of each position; -1 for none
}

func newSweepDAG(a *celllib.Annotated) sweepDAG {
	c := a.Circuit
	order := c.TopoOrder()
	n := len(order)
	d := sweepDAG{
		pos:        make([]int32, n),
		gate:       make([]int32, n),
		nominal:    make([]float64, n),
		faninOff:   make([]int32, 0, n+1),
		fanoutOff:  make([]int32, 0, n+1),
		lastFanout: make([]int32, n),
	}
	for i, g := range order {
		d.pos[g], d.gate[i] = int32(i), int32(g)
	}
	for _, g := range order {
		gate := &c.Gates[g]
		if gate.Type != circuit.Input {
			d.nominal[g] = a.Delay[g]
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
		d.lastFanout[d.pos[g]] = last
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
// later in the order, are marked too, and last extends to the latest of
// them. mark == nil marks every position from through last; over
// arbitrary arrival contents that is a full sweep only with from = 0 and
// last the final position. It returns the worst arrival over all
// positions and the number of positions recomputed.
func (d *sweepDAG) sweep(delay, arrival []float64, from, last int, mark []bool) (worst float64, gates int) {
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
		at := in + delay[d.gate[i]]
		if mark != nil && math.Float64bits(at) != math.Float64bits(arrival[i]) {
			for _, f := range d.fanout[d.fanoutOff[i]:d.fanoutOff[i+1]] {
				mark[f] = true
			}
			last = max(last, int(d.lastFanout[i]))
		}
		arrival[i] = at
	}
	for _, at := range arrival {
		if at > worst {
			worst = at
		}
	}
	return worst, gates
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
	return e.bicDelay(sc, sc.arrival, moduleOf, mods, nil)
}

// UpdateBICDelay is BICDelay for a caller that keeps the arrival times
// between evaluations, over a partition: mods are the estimates of
// disjoint gate groups. arrival (one entry per gate, in the estimator's
// own order) holds the arrival times under the module estimates as they
// were before the modules listed in touched changed; it is updated in
// place to the arrival times under mods, and D_BIC is returned. Only the
// touched modules' gates, and the gates downstream whose fanin arrival
// then changes, are recomputed; when the touched gates are dense, every
// gate from the first of them on is. An unrecomputed gate has an
// unchanged delay and unchanged fanin arrivals, and the worst arrival is
// a maximum over the same values, so the result is bit-identical to a
// full sweep. touched == nil means arrival holds nothing valid: every
// gate is recomputed.
func (e *Estimator) UpdateBICDelay(arrival []float64, mods []*Module, touched []int) float64 {
	sc := e.getScratch()
	defer e.scratch.Put(sc)
	return e.bicDelay(sc, arrival, nil, mods, touched)
}

// bicDelay scatters the modules' degraded delays into sc.delay, seeds the
// sweep with the touched modules' gates and sweeps from the earliest of
// them. With
// moduleOf == nil every gate an estimate lists takes its delay from it;
// otherwise only the gates moduleOf maps to that estimate do.
func (e *Estimator) bicDelay(sc *evalScratch, arrival []float64, moduleOf []int, mods []*Module, touched []int) float64 {
	copy(sc.delay, e.dag.nominal)
	for mi, m := range mods {
		if m == nil {
			continue
		}
		for i, g := range m.Gates {
			if moduleOf == nil || moduleOf[g] == mi {
				sc.delay[g] = m.Delay[i]
			}
		}
	}
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
	worst, gates := e.dag.sweep(sc.delay, arrival, from, last, mark)
	if e.bicSweeps != nil {
		e.bicSweeps.Inc()
		e.bicGates.Add(uint64(gates))
	}
	return worst
}
