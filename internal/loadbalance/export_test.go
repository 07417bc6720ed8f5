package loadbalance

// The profile accessors only the tests and examples use.

// InputProfile computes the exact load profile: rates[j] is VOQ j's rate
// and primary[j] its assigned primary intermediate port.
var InputProfile = inputProfile

// Loads returns a copy of the per-port loads.
func (p profile) Loads() []float64 { return append([]float64(nil), p.loads...) }

// Max returns the largest per-port load.
func (p profile) Max() float64 { return p.maxLoad() }

// Mean returns the average per-port load (total input load / N).
func (p profile) Mean() float64 {
	var s float64
	for _, l := range p.loads {
		s += l
	}
	return s / float64(p.n)
}

// Imbalance returns Max/Mean, 1.0 being perfect balance. A zero-load
// profile reports 1.
func (p profile) Imbalance() float64 {
	m := p.Mean()
	if m == 0 {
		return 1
	}
	return p.Max() / m
}

// Overloaded reports whether any queue's arrival rate reaches the 1/N
// service rate.
func (p profile) Overloaded() bool { return p.overloadedQueues() > 0 }
