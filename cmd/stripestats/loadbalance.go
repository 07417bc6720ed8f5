package main

// The stripe load-balance analysis behind stripestats: how well a
// Sprinklers stripe assignment spreads traffic over the intermediate ports,
// the empirical counterpart of the Sec. 4 stability analysis.
//
// For one input port with VOQ rates r_1..r_N and primary-port assignment
// sigma, the arrival rate to the queue of packets bound for intermediate
// port l is
//
//	X_l = sum_j (r_j / F(r_j)) * 1{ l in interval(sigma(j), F(r_j)) },
//
// and the switch is stable when every X_l stays below the 1/N service rate.
// inputProfile computes exact per-port load profiles, estimate samples the
// overload probability over random placements by Monte Carlo, and
// adversarialSplit builds the worst-case rate split from the proof of
// Theorem 1, so the estimate can be compared against the Chernoff bound of
// Theorem 2 in its worst-case regime. By the OLS symmetry argument of Sec. 4, the same distribution
// governs the output-side queues, so one analysis covers both.

import (
	"math/rand"
	"sort"

	"sprinklers/internal/dyadic"
	"sprinklers/internal/permute"
)

// profile is the per-intermediate-port arrival-rate profile of one input
// port under a concrete stripe assignment.
type profile struct {
	n     int
	loads []float64
}

// inputProfile computes the exact load profile: rates[j] is VOQ j's rate
// and primary[j] its assigned primary intermediate port.
func inputProfile(rates []float64, primary []int, n int) profile {
	loads := make([]float64, n)
	for j, r := range rates {
		if r <= 0 {
			continue
		}
		f := dyadic.StripeSize(r, n)
		share := r / float64(f)
		iv := dyadic.Containing(primary[j], f)
		for l := iv.Start; l < iv.End(); l++ {
			loads[l] += share
		}
	}
	return profile{n: n, loads: loads}
}

// maxLoad returns the largest per-port load.
func (p profile) maxLoad() float64 {
	var mx float64
	for _, l := range p.loads {
		if l > mx {
			mx = l
		}
	}
	return mx
}

// overloadedQueues counts the queues whose arrival rate reaches the 1/N
// service rate.
func (p profile) overloadedQueues() int {
	k := 0
	for _, l := range p.loads {
		if l >= 1/float64(p.n) {
			k++
		}
	}
	return k
}

// monteCarlo summarizes the distribution of the maximum per-port load over
// random primary-port placements. Two overload events are counted: some
// queue of the input overloaded (overloads, one per trial), and one given
// queue overloaded (queueOverloads, one per trial and queue), the event
// Theorem 2 bounds.
type monteCarlo struct {
	trials         int
	n              int     // queues per trial
	overloads      int     // trials with some X_l >= 1/N
	queueOverloads int     // (trial, l) pairs with X_l >= 1/N
	meanMax        float64 // mean of max_l X_l
	maxQuantile    []float64
}

// overloadProbability returns overloads / trials: the frequency of any of
// the N queues being overloaded.
func (mc monteCarlo) overloadProbability() float64 {
	return float64(mc.overloads) / float64(mc.trials)
}

// queueOverloadProbability returns queueOverloads / (trials * n): the
// per-queue overload frequency.
func (mc monteCarlo) queueOverloadProbability() float64 {
	return float64(mc.queueOverloads) / (float64(mc.trials) * float64(mc.n))
}

// estimate runs trials random uniform placements of the given rate split
// and summarizes the resulting max-load distribution. quantiles asks for
// order statistics of max_l X_l (e.g. 0.5, 0.99).
func estimate(rates []float64, n, trials int, quantiles []float64, rng *rand.Rand) monteCarlo {
	mc := monteCarlo{trials: trials, n: n}
	maxes := make([]float64, trials)
	var sum float64
	for t := 0; t < trials; t++ {
		primary := permute.Uniform(n, rng)
		p := inputProfile(rates, primary, n)
		m := p.maxLoad()
		maxes[t] = m
		sum += m
		if k := p.overloadedQueues(); k > 0 {
			mc.overloads++
			mc.queueOverloads += k
		}
	}
	mc.meanMax = sum / float64(trials)
	sort.Float64s(maxes)
	for _, q := range quantiles {
		idx := int(q * float64(trials-1))
		mc.maxQuantile = append(mc.maxQuantile, maxes[idx])
	}
	return mc
}

// adversarialSplit returns the worst-case rate split from the proof of
// Theorem 1 (Lemma 1), scaled to the given total load: a geometric ladder
// of VOQ rates 2^ceil(log2 l)/N^2 for l = 1..N/2 plus one heavy VOQ at rate
// 1/2. At total load exactly 2/3 + 1/(3N^2) an aligned placement drives one
// queue to exactly its service rate; under random placement it maximizes
// the overload probability among the splits the proof considers.
func adversarialSplit(n int, total float64) []float64 {
	base := make([]float64, n)
	var sum float64
	for l := 1; l <= n/2; l++ {
		f := 1
		for f < l {
			f *= 2
		}
		base[l-1] = float64(f) / float64(n*n)
		sum += base[l-1]
	}
	base[n/2] = 0.5
	sum += 0.5
	scale := total / sum
	for j := range base {
		base[j] *= scale
	}
	return base
}
