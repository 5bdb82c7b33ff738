package partition

import "unsafe"

// ArrivalLayout returns the address of p's settled page list; nil before
// the first evaluation.
func (p *Partition) ArrivalLayout() unsafe.Pointer {
	return unsafe.Pointer(unsafe.SliceData(p.settled))
}

// SettledPages returns the number of p's settled pages.
func (p *Partition) SettledPages() int { return len(p.settled) }

// SharedPages returns how many of p's settled pages are the very pages q
// holds at the same place.
func (p *Partition) SharedPages(q *Partition) int {
	shared := 0
	for i, pg := range p.settled {
		if i < len(q.settled) && q.settled[i] == pg {
			shared++
		}
	}
	return shared
}

// ArrivalTimes returns p's arrival times under its current modules as its
// next sweep starts from them: the settled ones with no touched modules,
// or else re-propagated from them. nil before the first evaluation.
func (p *Partition) ArrivalTimes() []float64 {
	arrival, _ := p.times()
	return arrival
}

// DelayTimes returns p's degraded gate delays per sweep position under
// its current modules, as ArrivalTimes returns its arrival times.
func (p *Partition) DelayTimes() []float64 {
	_, delay := p.times()
	return delay
}

// times returns fresh copies of p's arrival times and delays per sweep
// position: the settled ones re-propagated from the touched modules.
func (p *Partition) times() (arrival, delay []float64) {
	if p.settled == nil {
		return nil, nil
	}
	sc := costScratchPool.Get().(*costScratch)
	defer costScratchPool.Put(sc)
	p.sweepTimes(sc)
	n, half := p.E.A.Circuit.NumGates(), len(sc.times)/2
	return append([]float64(nil), sc.times[:n]...), append([]float64(nil), sc.times[half:half+n]...)
}
