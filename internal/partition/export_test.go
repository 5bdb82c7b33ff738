package partition

import (
	"slices"
	"unsafe"
)

// ArrivalLayout returns the address of p's arrival vector; nil before the
// first evaluation.
func (p *Partition) ArrivalLayout() *float64 { return unsafe.SliceData(p.base) }

// ArrivalTimes returns p's arrival times under its current modules as its
// next sweep starts from them: the arrival vector itself with no touched
// modules, or else re-propagated from them into a fresh vector. nil
// before the first evaluation.
func (p *Partition) ArrivalTimes() []float64 {
	if len(p.touched) == 0 || p.base == nil {
		return slices.Clone(p.base)
	}
	sc := p.getCostScratch()
	defer putCostScratch(sc)
	arrival := make([]float64, len(p.base))
	p.sweepArrival(arrival, sc.mods)
	return arrival
}
