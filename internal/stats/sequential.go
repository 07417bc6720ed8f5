package stats

import "math"

// Sequential early stopping for replicated experiments. Instead of always
// running a fixed replica count, a sequential study runs replicas one at a
// time and stops as soon as the batch-means confidence interval is tight
// enough relative to the estimate — the classical relative-precision
// sequential stopping rule (Law & Kelton). The rule is a pure function of
// the samples seen so far, so a sequential run is deterministic: the same
// replica means stop at the same count on any machine, any parallelism.

// relHalfWidth returns the 95% CI half-width of xs relative to the
// magnitude of its mean. The denominator is floored at 1 so near-zero
// means (a delay of fractions of a slot) cannot demand absolute precision
// no replica count delivers. With fewer than two samples it returns +Inf:
// no variance estimate exists yet.
func relHalfWidth(xs []float64) float64 {
	if len(xs) < 2 {
		return math.Inf(1)
	}
	mean, half := MeanCI95(xs)
	return half / math.Max(math.Abs(mean), 1)
}

// SequentialStop reports whether a sequential replication experiment may
// stop after observing xs: at least minSamples replicas have run and the
// relative 95% CI half-width is at or under relTol. relTol <= 0 disables
// early stopping (never stop before the caller's own cap).
func SequentialStop(xs []float64, minSamples int, relTol float64) bool {
	if relTol <= 0 {
		return false
	}
	if len(xs) < max(minSamples, 2) {
		return false
	}
	return relHalfWidth(xs) <= relTol
}
