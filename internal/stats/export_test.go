package stats

// Accessors only the tests read.

// Count reports the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// SumSeconds reports the total observed time in seconds.
func (h *Histogram) SumSeconds() float64 {
	if h == nil {
		return 0
	}
	return float64(h.sumNs.Load()) / 1e9
}
