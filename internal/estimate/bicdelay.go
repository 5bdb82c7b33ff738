package estimate

import (
	"math"
	"math/bits"

	"iddqsyn/internal/celllib"
	"iddqsyn/internal/circuit"
)

// sweepDAG is the circuit flattened for the D_BIC longest-path sweep:
// gates are numbered by their position in the topological order, and the
// fanin and fanout lists hold positions. Arrival-time, delay and frontier
// vectors are indexed by position too, so a sweep walks them front to
// back.
type sweepDAG struct {
	pos     []int32   // gate ID -> position
	gate    []int32   // position -> gate ID
	nominal []float64 // nominal delay D(g) per position; 0 for primary inputs
	// CSR adjacency: the fanins of position i are fanin[faninOff[i]:
	// faninOff[i+1]], likewise for fanouts.
	faninOff, fanin   []int32
	fanoutOff, fanout []int32
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
		pos:       make([]int32, n),
		gate:      make([]int32, n),
		nominal:   make([]float64, n),
		faninOff:  make([]int32, 0, n+1),
		fanoutOff: make([]int32, 0, n+1),
	}
	for i, g := range order {
		d.pos[g], d.gate[i] = int32(i), int32(g)
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
		for _, f := range gate.Fanout {
			d.fanout = append(d.fanout, d.pos[f])
		}
		if len(gate.Fanout) == 0 {
			d.sinks = append(d.sinks, int32(i))
		}
	}
	d.faninOff = append(d.faninOff, int32(len(d.fanin)))
	d.fanoutOff = append(d.fanoutOff, int32(len(d.fanout)))
	return d
}

// arrive returns the arrival time at position i: the latest fanin
// arrival plus its delay, so its delay alone for a primary input.
func (d *sweepDAG) arrive(delay, arrival []float64, i int) float64 {
	var in float64
	for _, f := range d.fanin[d.faninOff[i]:d.faninOff[i+1]] {
		if arrival[f] > in {
			in = arrival[f]
		}
	}
	return in + delay[i]
}

// sweep is the longest-path sweep behind the nominal delay, BICDelay and
// dense UpdateBICDelay seeds: it recomputes, in order, the arrival time
// of every position at or after from. Over arbitrary arrival contents
// that is a full sweep only with from = 0. It returns the number of positions
// recomputed.
func (d *sweepDAG) sweep(delay, arrival []float64, from int) int {
	for i := from; i < len(arrival); i++ {
		arrival[i] = d.arrive(delay, arrival, i)
	}
	return len(arrival) - from
}

// sweepFrontier is the sweep behind sparse UpdateBICDelay seeds. It
// recomputes the positions set in frontier, in ascending order from the
// word holding position from on, and clears each. When a recomputed
// arrival differs bitwise from the stored one, its fanouts, which come
// later in the order, join the frontier. frontier is all zero on return.
// It returns the number of positions recomputed.
func (d *sweepDAG) sweepFrontier(delay, arrival []float64, frontier bitset, from int) int {
	gates := 0
	for w := from / 64; w < len(frontier); w++ {
		for frontier[w] != 0 {
			i := w*64 + bits.TrailingZeros64(frontier[w])
			frontier[w] &= frontier[w] - 1
			gates++
			at := d.arrive(delay, arrival, i)
			if math.Float64bits(at) == math.Float64bits(arrival[i]) {
				continue
			}
			arrival[i] = at
			for _, f := range d.fanout[d.fanoutOff[i]:d.fanoutOff[i+1]] {
				frontier.set(int(f))
			}
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

// CriticalPath returns one longest path under arrival, the arrival times
// per sweep position of a sweep over some gate delays, as its ascending
// positions: from the latest fanout-free position (the first on ties) back
// through the latest fanin (the first on ties) to a position without
// fanins. Summing delays along it bounds D_BIC from below: every arrival
// is the latest fanin arrival plus the gate's delay, and rounded addition
// is monotone, so under any gate delays the left-to-right float sum of
// the delays along any path is at most the arrival at its end, and hence
// at most D_BIC under those delays.
func (e *Estimator) CriticalPath(arrival []float64) []int32 {
	d := &e.dag
	if len(d.sinks) == 0 {
		return nil
	}
	end := d.sinks[0]
	for _, i := range d.sinks[1:] {
		if arrival[i] > arrival[end] {
			end = i
		}
	}
	n := 0
	for i := end; i >= 0; i = d.latestFanin(arrival, i) {
		n++
	}
	//lint:ignore hotalloc once per settle, which keeps the path with its pages for the partition's clones
	path := make([]int32, n)
	for i := end; i >= 0; i = d.latestFanin(arrival, i) {
		n--
		path[n] = i
	}
	return path
}

// latestFanin returns the fanin of position i with the latest arrival,
// the first in fanin order on ties, or -1 when i has no fanins.
func (d *sweepDAG) latestFanin(arrival []float64, i int32) int32 {
	latest := int32(-1)
	for _, f := range d.fanin[d.faninOff[i]:d.faninOff[i+1]] {
		if latest < 0 || arrival[f] > arrival[latest] {
			latest = f
		}
	}
	return latest
}

// GateAt returns the gate ID at sweep position pos.
func (e *Estimator) GateAt(pos int32) int { return int(e.dag.gate[pos]) }

// BICDelay returns D_BIC: the longest-path delay with every gate's delay
// degraded by δ(g, t) of §3.2. moduleOf maps each gate ID to its module
// index (inputs may carry any value); mods holds the corresponding module
// estimates, whose degraded gate delays Delays gives. A gate that moduleOf
// maps to no estimate keeps its nominal delay. It sweeps every gate;
// UpdateBICDelay is the incremental form.
func (e *Estimator) BICDelay(moduleOf []int, mods []*Module) float64 {
	sc := e.getScratch()
	defer e.scratch.Put(sc)
	copy(sc.delay, e.dag.nominal)
	for mi, m := range mods {
		if m == nil {
			continue
		}
		delay := e.delays(m, sc)
		for i, g := range m.Gates {
			if moduleOf[g] == mi {
				sc.delay[e.dag.pos[g]] = delay[i]
			}
		}
	}
	e.countSweep(e.dag.sweep(sc.delay, sc.arrival, 0))
	return e.dag.worst(sc.arrival)
}

// UpdateBICDelay is BICDelay for a caller that keeps, between
// evaluations over a partition, the arrival time and the degraded gate
// delay at each sweep position (one entry per gate, indexed by position;
// the delay is 0 at every primary input). arrival and delay hold them
// under the module estimates as they were before the modules in changed
// became what they are; changed holds the new estimates, made by
// FinishModule, of every module whose gates or delays changed since, and
// their delay vectors are built here if no earlier call built them.
// UpdateBICDelay writes the changed modules' gate delays into delay,
// brings arrival up to date in place and returns D_BIC. Passing every
// module of a partition with zeroed vectors evaluates it from scratch.
//
// Only the changed modules' gates, and the gates downstream whose fanin
// arrival then changes, are recomputed; when the changed gates are dense,
// every gate from the first of them on is. An unrecomputed gate has an
// unchanged delay and unchanged fanin arrivals, and the worst arrival is
// a maximum over the same values, so the result is bit-identical to a
// full sweep.
func (e *Estimator) UpdateBICDelay(arrival, delay []float64, changed []*Module) float64 {
	sc := e.getScratch()
	defer e.scratch.Put(sc)
	return e.updateBICDelay(sc, arrival, delay, changed)
}

// updateBICDelay is UpdateBICDelay on the caller's scratch, whose frontier
// is all zero on entry and on return.
func (e *Estimator) updateBICDelay(sc *evalScratch, arrival, delay []float64, changed []*Module) float64 {
	frontier := sc.frontier
	from, seeds := len(arrival), 0
	for _, m := range changed {
		for i, d := range e.delays(m, sc) {
			p := int(e.dag.pos[m.Gates[i]])
			delay[p] = d
			from = min(from, p)
		}
		seeds += len(m.Gates)
	}
	// Dense seeds reach most positions after the first of them, where
	// recomputing every position costs less than tracking a frontier.
	if seeds*8 >= len(arrival)-from {
		e.countSweep(e.dag.sweep(delay, arrival, from))
		return e.dag.worst(arrival)
	}
	for _, m := range changed {
		for _, g := range m.Gates {
			frontier.set(int(e.dag.pos[g]))
		}
	}
	e.countSweep(e.dag.sweepFrontier(delay, arrival, frontier, from))
	return e.dag.worst(arrival)
}

// countSweep counts one D_BIC sweep that recomputed the given number of
// positions.
func (e *Estimator) countSweep(gates int) {
	if e.bicSweeps != nil {
		e.bicSweeps.Inc()
		e.bicGates.Add(uint64(gates))
	}
}
