package stats

import "sort"

// P2 is the Jain–Chlamtac P-squared streaming quantile estimator: it tracks
// an arbitrary quantile of a stream in O(1) space and time per observation
// by maintaining five markers whose heights follow a piecewise-parabolic
// model of the empirical CDF. The cluster coordinator tracks its
// dispatch-latency percentile with it; Delay does not use it, because nothing
// reads more of a point's delay distribution than the power-of-two
// histogram gives and two estimators a delivery were 15 % of a study's CPU.
type P2 struct {
	p     float64
	count int64
	q     [5]float64 // marker heights
	n     [5]float64 // marker positions
	np    [5]float64 // desired positions
	dn    [5]float64 // desired position increments
	init  []float64  // first five observations
}

// NewP2 builds an estimator for the p-quantile, 0 < p < 1.
func NewP2(p float64) *P2 {
	if p <= 0 || p >= 1 {
		panic("stats: P2 quantile must be in (0, 1)")
	}
	return &P2{p: p, init: make([]float64, 0, 5)}
}

// Add feeds one observation.
func (e *P2) Add(v float64) {
	e.count++
	if len(e.init) < 5 {
		e.init = append(e.init, v)
		if len(e.init) == 5 {
			sort.Float64s(e.init)
			for i := 0; i < 5; i++ {
				e.q[i] = e.init[i]
				e.n[i] = float64(i + 1)
			}
			p := e.p
			e.np = [5]float64{1, 1 + 2*p, 1 + 4*p, 3 + 2*p, 5}
			e.dn = [5]float64{0, p / 2, p, (1 + p) / 2, 1}
		}
		return
	}
	// Find the cell k containing v and update extreme markers.
	var k int
	switch {
	case v < e.q[0]:
		e.q[0] = v
		k = 0
	case v >= e.q[4]:
		e.q[4] = v
		k = 3
	default:
		for k = 0; k < 4; k++ {
			if v < e.q[k+1] {
				break
			}
		}
	}
	for i := k + 1; i < 5; i++ {
		e.n[i]++
	}
	for i := 0; i < 5; i++ {
		e.np[i] += e.dn[i]
	}
	// Adjust the three middle markers toward their desired positions.
	for i := 1; i <= 3; i++ {
		d := e.np[i] - e.n[i]
		if (d >= 1 && e.n[i+1]-e.n[i] > 1) || (d <= -1 && e.n[i-1]-e.n[i] < -1) {
			s := sign(d)
			qNew := e.parabolic(i, s)
			if e.q[i-1] < qNew && qNew < e.q[i+1] {
				e.q[i] = qNew
			} else {
				e.q[i] = e.linear(i, s)
			}
			e.n[i] += s
		}
	}
}

func sign(d float64) float64 {
	if d >= 0 {
		return 1
	}
	return -1
}

// parabolic is the P^2 piecewise-parabolic prediction of marker i moved by
// d (+/-1).
func (e *P2) parabolic(i int, d float64) float64 {
	return e.q[i] + d/(e.n[i+1]-e.n[i-1])*
		((e.n[i]-e.n[i-1]+d)*(e.q[i+1]-e.q[i])/(e.n[i+1]-e.n[i])+
			(e.n[i+1]-e.n[i]-d)*(e.q[i]-e.q[i-1])/(e.n[i]-e.n[i-1]))
}

func (e *P2) linear(i int, d float64) float64 {
	return e.q[i] + d*(e.q[i+int(d)]-e.q[i])/(e.n[i+int(d)]-e.n[i])
}

// Count returns the number of observations.
func (e *P2) Count() int64 { return e.count }

// Value returns the current quantile estimate. With fewer than five
// observations it falls back to the exact small-sample quantile.
func (e *P2) Value() float64 {
	if len(e.init) < 5 {
		if len(e.init) == 0 {
			return 0
		}
		s := append([]float64(nil), e.init...)
		sort.Float64s(s)
		idx := int(e.p * float64(len(s)))
		if idx >= len(s) {
			idx = len(s) - 1
		}
		return s[idx]
	}
	return e.q[2]
}
