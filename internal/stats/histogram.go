package stats

import (
	"fmt"
	"io"
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram bucket layout: upper bounds at powers of two of
// nanoseconds, 2^histShift ns (1.024 µs) through 2^(histShift+histBuckets-2) ns
// (~68.7 s), plus +Inf. Log2 buckets keep Observe to a handful of
// instructions (bits.Len64 + three atomic adds) with no allocation and
// no configuration, while spanning the microsecond cache hits and the
// multi-second straggler jobs the cluster actually produces.
const (
	histShift   = 10
	histBuckets = 28 // 27 finite bounds + the +Inf bucket
)

// Histogram is a fixed-layout, lock-free latency histogram exposed in
// Prometheus text format. The zero value is unusable; construct with
// NewHistogram. A nil *Histogram ignores Observe, so callers on the hot
// path pay one predictable branch when a histogram is not wired up.
type Histogram struct {
	name    string
	help    string
	buckets [histBuckets]atomic.Int64 // per-bucket (non-cumulative) counts
	sumNs   atomic.Int64
	count   atomic.Int64
}

// NewHistogram returns a histogram exposed under the given Prometheus
// metric name (without the _bucket/_sum/_count suffixes).
func NewHistogram(name, help string) *Histogram {
	return &Histogram{name: name, help: help}
}

// histBucketIndex maps a duration in ns to its bucket. Index i covers
// (2^(histShift+i-1), 2^(histShift+i)] ns; everything above the last
// finite bound lands in +Inf.
func histBucketIndex(ns int64) int {
	if ns <= 1<<histShift {
		return 0
	}
	i := bits.Len64(uint64(ns-1)) - histShift
	if i >= histBuckets {
		return histBuckets - 1
	}
	return i
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	ns := d.Nanoseconds()
	if ns < 0 {
		ns = 0
	}
	h.buckets[histBucketIndex(ns)].Add(1)
	h.sumNs.Add(ns)
	h.count.Add(1)
}

// WriteProm writes the histogram in Prometheus text exposition format:
// # HELP / # TYPE, cumulative _bucket samples with le in seconds, then
// _sum and _count. Bucket counts are read low-to-high after loading
// count first, so in the presence of concurrent Observes the exposition
// stays internally consistent enough for scraping (the strict-parse
// invariants hold on a quiescent histogram).
func (h *Histogram) WriteProm(w io.Writer) {
	fmt.Fprintf(w, "# HELP %s %s\n", h.name, h.help)
	fmt.Fprintf(w, "# TYPE %s histogram\n", h.name)
	var cum int64
	for i := 0; i < histBuckets-1; i++ {
		cum += h.buckets[i].Load()
		bound := float64(int64(1)<<(histShift+i)) / 1e9
		fmt.Fprintf(w, "%s_bucket{le=\"%g\"} %d\n", h.name, bound, cum)
	}
	cum += h.buckets[histBuckets-1].Load()
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", h.name, cum)
	fmt.Fprintf(w, "%s_sum %g\n", h.name, float64(h.sumNs.Load())/1e9)
	fmt.Fprintf(w, "%s_count %d\n", h.name, cum)
}
