// Package bound implements the worst-case large-deviation machinery of
// Sec. 4: Theorem 1's deterministic feasibility threshold and the Theorem 2
// + Chernoff upper bound on the probability that a single
// (input, intermediate)-port queue of a Sprinklers switch is overloaded.
// `sweep -builtin table1` renders Table 1 of the paper from it.
//
// The chain of inequalities being evaluated is
//
//	P(X(r) >= 1/N) <= inf_{theta>0} e^{-theta/N} E[e^{theta X}]
//	               <= inf_{theta>0} h(p*(theta*alpha), theta*alpha)^{N/2}
//	                  e^{theta (rho-1)/N}
//
// with alpha = 1/N^2 the maximum load-per-share a VOQ can impose on one
// intermediate port under the stripe sizing rule (Eq. 1),
// h(p, a) = p e^{a(1-p)} + (1-p) e^{-ap} the centered Bernoulli MGF bound,
// and p*(a) its maximizing parameter. Substituting a = theta*alpha turns the
// exponent into N [ (1/2) ln h(p*(a), a) - a (1 - rho) ], which the package
// minimizes numerically in log space so that probabilities far below
// representable magnitudes (Table 1 reaches 1e-30) remain exact in the log
// domain.
package bound

import (
	"fmt"
	"math"
)

// h computes h(p, a) = p e^{a(1-p)} + (1-p) e^{-ap}, the MGF of a centered
// Bernoulli(p) random variable scaled by a (Theorem 2).
func h(p, a float64) float64 {
	return p*math.Exp(a*(1-p)) + (1-p)*math.Exp(-a*p)
}

// pStar computes p*(a) = (e^a - 1 - a) / (a e^a - a), the maximizer of
// h(., a) (Theorem 2). For a -> 0 it tends to 1/2.
func pStar(a float64) float64 {
	if a < 1e-8 {
		// Series expansion: p*(a) = 1/2 - a/24 + O(a^2)... the limit
		// suffices at this magnitude.
		return 0.5
	}
	ea := math.Exp(a)
	return (ea - 1 - a) / (a*ea - a)
}

// FeasibilityThreshold returns the Theorem 1 constant 2/3 + 1/(3N^2): if the
// total load on an input port is strictly below it, no assignment of rates
// can overload any single queue, so the overload probability is exactly 0.
func FeasibilityThreshold(n int) float64 {
	nn := float64(n)
	return 2.0/3.0 + 1.0/(3.0*nn*nn)
}

// LogQueueOverload returns the natural logarithm of the Theorem 2 + Chernoff
// upper bound on P(X >= 1/N) for a single queue of an N-port Sprinklers
// switch whose input port carries total load rho. It returns math.Inf(-1)
// when rho is below the Theorem 1 threshold (probability exactly zero).
func LogQueueOverload(n int, rho float64) float64 {
	if rho < FeasibilityThreshold(n) {
		return math.Inf(-1)
	}
	nn := float64(n)
	// exponent(a) = N * [ (1/2) ln h(p*(a), a) - a (1 - rho) ].
	exponent := func(a float64) float64 {
		return nn * (0.5*math.Log(h(pStar(a), a)) - a*(1-rho))
	}
	// Coarse scan in log space to bracket the minimum, then golden-section
	// refinement. The objective is smooth and unimodal on a > 0.
	bestA, bestV := math.NaN(), math.Inf(1)
	for i := 0; i <= 600; i++ {
		a := math.Pow(10, -4+8*float64(i)/600) // 1e-4 .. 1e4
		if v := exponent(a); v < bestV {
			bestV, bestA = v, a
		}
	}
	lo, hi := bestA/2, bestA*2
	const phi = 0.6180339887498949
	x1 := hi - phi*(hi-lo)
	x2 := lo + phi*(hi-lo)
	f1, f2 := exponent(x1), exponent(x2)
	for i := 0; i < 200 && hi-lo > 1e-12*hi; i++ {
		if f1 < f2 {
			hi, x2, f2 = x2, x1, f1
			x1 = hi - phi*(hi-lo)
			f1 = exponent(x1)
		} else {
			lo, x1, f1 = x1, x2, f2
			x2 = lo + phi*(hi-lo)
			f2 = exponent(x2)
		}
	}
	if v := exponent((lo + hi) / 2); v < bestV {
		bestV = v
	}
	// A Chernoff bound never exceeds 1; clamp for the tiny-N regime where
	// the optimization is vacuous.
	return math.Min(bestV, 0)
}

// QueueOverload returns the Theorem 2 bound as a probability. Values below
// roughly 1e-300 underflow float64; use LogQueueOverload for the log-domain
// value.
func QueueOverload(n int, rho float64) float64 {
	return math.Exp(LogQueueOverload(n, rho))
}

// LogSwitchOverload returns the log of the union bound over all 2N^2 queues
// of the switch (the switch-wide overload probability discussed below
// Table 1).
func LogSwitchOverload(n int, rho float64) float64 {
	lq := LogQueueOverload(n, rho)
	if math.IsInf(lq, -1) {
		return lq
	}
	return math.Min(lq+math.Log(2*float64(n)*float64(n)), 0)
}

// SwitchOverload returns the switch-wide union bound as a probability.
func SwitchOverload(n int, rho float64) float64 {
	return math.Exp(LogSwitchOverload(n, rho))
}

// FormatLog renders e^lp in scientific notation straight from the natural-log
// value, so bounds far below float64's underflow threshold print exactly (the
// paper's Table 1 bottoms out around 1e-30 for this reason). -Inf renders as
// "0".
func FormatLog(lp float64) string {
	if math.IsInf(lp, -1) {
		return "0"
	}
	log10 := lp / math.Ln10
	exp := int(math.Floor(log10))
	mant := math.Pow(10, log10-float64(exp))
	return fmt.Sprintf("%.2fe%+03d", mant, exp)
}
