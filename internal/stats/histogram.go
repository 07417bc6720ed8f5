package stats

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram cell layout: log-linear in nanoseconds. Cell 0 holds
// [0, 2^histShift] ns (≤ 1.024 µs); above it every power-of-two octave
// (2^(e-1), 2^e] ns is cut into 2^histSub equal cells, up to the largest
// time.Duration, so no observation overflows the layout. A cell's upper
// bound is at most 9/8 of anything it holds above 1.024 µs, which bounds
// Quantile's relative error, while Observe stays a bits.Len64, a shift,
// two atomic adds and a running maximum, with no allocation and no
// configuration.
//
// /metrics exposes the power-of-two bounds 2^histShift … 2^36 ns (≈ 69 s)
// plus +Inf, histBuckets buckets in all: the exposed bound 2^(histShift+k)
// is the top of cell k<<histSub, and every cell past 2^36 ns folds into
// +Inf.
const (
	histShift   = 10
	histSub     = 3
	histBuckets = 28 // 27 exposed finite bounds + the +Inf bucket
	histCells   = 1 + (63-histShift)<<histSub
)

// Histogram is a fixed-layout, lock-free latency histogram that answers
// quantiles and is exposed in Prometheus text format. The zero value
// records and answers Quantile; WriteProm needs the name NewHistogram
// gives it. A nil *Histogram ignores Observe, so callers on the hot path
// pay one predictable branch when a histogram is not wired up.
type Histogram struct {
	name  string
	help  string
	cells [histCells]atomic.Int64 // per-cell (non-cumulative) counts
	sumNs atomic.Int64
	maxNs atomic.Int64 // largest observation; Quantile never reads above it
}

// NewHistogram returns a histogram exposed under the given Prometheus
// metric name (without the _bucket/_sum/_count suffixes).
func NewHistogram(name, help string) *Histogram {
	return &Histogram{name: name, help: help}
}

// histBucketIndex maps a duration in ns to its cell: 0 up to 2^histShift
// ns, then 2^histSub cells per octave (2^(e-1), 2^e], picked by the
// histSub bits below the leading one of ns-1.
func histBucketIndex(ns int64) int {
	if ns <= 1<<histShift {
		return 0
	}
	v := uint64(ns - 1)
	e := bits.Len64(v)
	sub := int(v>>(e-1-histSub)) & (1<<histSub - 1)
	return 1 + (e-1-histShift)<<histSub + sub
}

// cellBound is the inclusive upper bound of cell i in ns.
func cellBound(i int) int64 {
	if i == 0 {
		return 1 << histShift
	}
	e := histShift + 1 + (i-1)>>histSub
	sub := uint64((i-1)&(1<<histSub-1)) + 1
	b := (1<<histSub + sub) << (e - 1 - histSub)
	if b > math.MaxInt64 {
		return math.MaxInt64
	}
	return int64(b)
}

// Observe records one duration; a negative one counts as zero.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	ns := max(d.Nanoseconds(), 0)
	// The maximum is raised before the cell counts the observation, so a
	// Quantile that loads the cells and then the maximum never sees a
	// counted observation above it.
	m := h.maxNs.Load()
	for ns > m && !h.maxNs.CompareAndSwap(m, ns) {
		m = h.maxNs.Load()
	}
	h.cells[histBucketIndex(ns)].Add(1)
	h.sumNs.Add(ns)
}

// Quantile returns the upper bound of the cell holding the q-quantile, the
// observation of rank ⌈q·n⌉ among the n loaded, capped at the largest
// observation, together with n: never below the q-quantile, and above
// 1.024 µs at most 9/8 of it. Where the rank is n, as it is for the 95th
// percentile of up to 19 observations, the cap makes it exact. It returns
// 0, 0 when nothing was observed.
func (h *Histogram) Quantile(q float64) (time.Duration, int64) {
	if h == nil {
		return 0, 0
	}
	var counts [histCells]int64
	var n int64
	for i := range h.cells {
		counts[i] = h.cells[i].Load()
		n += counts[i]
	}
	if n == 0 {
		return 0, 0
	}
	rank := min(max(int64(math.Ceil(q*float64(n))), 1), n)
	i := 0
	for ; rank > counts[i]; i++ {
		rank -= counts[i]
	}
	return time.Duration(min(cellBound(i), h.maxNs.Load())), n
}

// WriteProm writes the histogram in Prometheus text exposition format:
// # HELP / # TYPE, cumulative _bucket samples with le in seconds, then
// _sum and _count. Cell counts are read low-to-high once each, and _count
// is their sum, so in the presence of concurrent Observes the exposition
// stays internally consistent enough for scraping (the strict-parse
// invariants hold on a quiescent histogram).
func (h *Histogram) WriteProm(w io.Writer) {
	fmt.Fprintf(w, "# HELP %s %s\n", h.name, h.help)
	fmt.Fprintf(w, "# TYPE %s histogram\n", h.name)
	var cum int64
	for i := range h.cells {
		cum += h.cells[i].Load()
		if k := i >> histSub; i&(1<<histSub-1) == 0 && k < histBuckets-1 {
			bound := float64(int64(1)<<(histShift+k)) / 1e9
			fmt.Fprintf(w, "%s_bucket{le=\"%g\"} %d\n", h.name, bound, cum)
		}
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", h.name, cum)
	fmt.Fprintf(w, "%s_sum %g\n", h.name, float64(h.sumNs.Load())/1e9)
	fmt.Fprintf(w, "%s_count %d\n", h.name, cum)
}
