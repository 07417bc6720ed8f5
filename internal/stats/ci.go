package stats

import "math"

// Replica aggregation. A simulation study runs every point several times
// with independent seeds (replicas); each replica's mean is one sample of the
// steady-state quantity, and the classical batch-means estimator turns those
// samples into a mean with a Student-t confidence interval.

// tCrit95Table holds the two-sided 95% Student-t critical values t_{0.975,df} for
// df = 1..30 (index df-1).
var tCrit95Table = [30]float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// tCrit95Anchors extends the table sparsely beyond df=30; between anchors the
// critical value is interpolated linearly in 1/df, which is accurate to three
// decimals over this range.
var tCrit95Anchors = []struct {
	df int
	t  float64
}{
	{30, 2.042}, {40, 2.021}, {60, 2.000}, {120, 1.980},
}

// tCrit95 returns the two-sided 95% Student-t critical value for the given
// degrees of freedom (df <= 0 returns +Inf: no interval can be formed from a
// single sample).
func tCrit95(df int) float64 {
	switch {
	case df <= 0:
		return math.Inf(1)
	case df <= 30:
		return tCrit95Table[df-1]
	case df > 120:
		// Beyond the table, t ~= z + c/df captures the 1/df approach to the
		// normal quantile (exact to ~1e-4 over this range).
		return 1.960 + 2.4/float64(df)
	}
	for i := 0; i+1 < len(tCrit95Anchors); i++ {
		lo, hi := tCrit95Anchors[i], tCrit95Anchors[i+1]
		if df <= hi.df {
			x := 1 / float64(df)
			xl, xh := 1/float64(lo.df), 1/float64(hi.df)
			return hi.t + (lo.t-hi.t)*(x-xh)/(xl-xh)
		}
	}
	return 1.960
}

// MeanCI95 returns the sample mean of xs and the half-width of its 95%
// confidence interval, treating the samples as i.i.d. (the batch-means
// assumption: each x is one replica's — or one batch's — mean). With fewer
// than two samples the half-width is 0: no variance estimate exists, and an
// empty xs has mean 0.
func MeanCI95(xs []float64) (mean, half float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(n)
	if n < 2 {
		return mean, 0
	}
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	s2 := ss / float64(n-1) // sample variance
	half = tCrit95(n-1) * math.Sqrt(s2/float64(n))
	return mean, half
}
