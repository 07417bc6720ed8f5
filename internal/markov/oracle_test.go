package markov

import (
	"fmt"
	"math/rand"
	"testing"
)

// The two oracles the closed form is checked against: an exact truncated
// stationary solve and a Monte-Carlo run of the chain.

// Stationary computes the stationary distribution of the chain by the
// forward recurrence implied by the balance equations,
//
//	pi_1 = pi_0 p/q,
//	pi_{j+1} = (pi_j - p*pi_{j-N+1}) / q   for j >= 1,
//
// truncated when the residual tail mass is below tol. It returns the
// distribution (normalized) and the truncation point.
func Stationary(n int, rho, tol float64) []float64 {
	if rho <= 0 || rho >= 1 {
		panic(fmt.Sprintf("markov: load %v outside (0, 1)", rho))
	}
	p := rho / float64(n)
	q := 1 - p
	pi := []float64{1, p / q}
	sum := 1 + p/q
	// The tail decays geometrically with ratio r < 1 solving the
	// characteristic equation; run until increments are negligible
	// relative to the accumulated mass.
	for j := 1; ; j++ {
		prev := 0.0
		if k := j - n + 1; k >= 0 {
			prev = pi[k]
		}
		next := (pi[j] - p*prev) / q
		if next < 0 {
			next = 0 // floating-point guard; true values are positive
		}
		pi = append(pi, next)
		sum += next
		if next < tol*sum && j > 4*n {
			break
		}
		if j > 100_000_000 {
			panic("markov: stationary solve failed to converge")
		}
	}
	for i := range pi {
		pi[i] /= sum
	}
	return pi
}

// MeanQueueNumeric returns E[Q] computed from the truncated stationary
// distribution.
func MeanQueueNumeric(n int, rho float64) float64 {
	pi := Stationary(n, rho, 1e-14)
	var mean float64
	for i, v := range pi {
		mean += float64(i) * v
	}
	return mean
}

// SimulateMeanQueue estimates E[Q] by simulating the chain for the given
// number of cycles (after discarding the first tenth as warmup).
func SimulateMeanQueue(n int, rho float64, cycles int64, rng *rand.Rand) float64 {
	p := rho / float64(n)
	var q int64
	warm := cycles / 10
	var sum float64
	for c := int64(0); c < cycles; c++ {
		if rng.Float64() < p {
			q += int64(n)
		}
		if q > 0 {
			q--
		}
		if c >= warm {
			sum += float64(q)
		}
	}
	return sum / float64(cycles-warm)
}

// BenchmarkFig5Markov evaluates Figure 5's expected intermediate-stage delay
// across the switch-size axis by the exact stationary solve (the closed form
// is free; the solve is the measured work).
func BenchmarkFig5Markov(b *testing.B) {
	var last float64
	for i := 0; i < b.N; i++ {
		for _, n := range []int{64, 256, 1024} {
			last = MeanQueueNumeric(n, 0.9)
		}
	}
	b.ReportMetric(last, "delay-cycles(N=1024)")
}
