package partition

// ArrivalLayout reports how p stores its arrival times: the address of
// its base vector's first element (nil before the first evaluation) and
// the length of its patch.
func (p *Partition) ArrivalLayout() (base *float64, patch int) {
	if p.base == nil {
		return nil, 0
	}
	return &p.base[0], len(p.patch)
}

// ArrivalTimes returns p's arrival times as of its last evaluation, base
// and patch merged into a fresh vector; nil before the first evaluation.
func (p *Partition) ArrivalTimes() []float64 {
	if p.base == nil {
		return nil
	}
	arrival := append([]float64(nil), p.base...)
	for _, pe := range p.patch {
		arrival[pe.pos] = pe.at
	}
	return arrival
}
