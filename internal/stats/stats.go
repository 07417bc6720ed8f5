// Package stats provides measurement instruments for switch simulations:
// delay statistics and per-flow reordering detection.
package stats

import (
	"math"
	"math/bits"
	"sort"

	"sprinklers/internal/sim"
)

// Delay accumulates packet delay statistics. The zero value is ready to use.
// Delays are recorded exactly (for mean/min/max) and in power-of-two buckets
// (for percentile estimates), so memory stays O(log maxDelay).
type Delay struct {
	count   int64
	sum     float64
	sumSq   float64
	min     sim.Slot
	max     sim.Slot
	buckets [64]int64 // bucket k counts delays in [2^(k-1), 2^k)
}

// Observe implements sim.Observer.
func (d *Delay) Observe(dv sim.Delivery) { d.Add(dv.Delay()) }

// Add records one delay sample.
func (d *Delay) Add(delay sim.Slot) {
	if delay < 0 {
		panic("stats: negative delay")
	}
	if d.count == 0 || delay < d.min {
		d.min = delay
	}
	if delay > d.max {
		d.max = delay
	}
	d.count++
	f := float64(delay)
	d.sum += f
	d.sumSq += f * f
	d.buckets[bucketOf(delay)]++
}

// bucketOf maps delay 0 -> bucket 0, 1 -> 1, 2..3 -> 2, 4..7 -> 3, ...: the
// bit length of the delay. Add has already rejected negative delays.
func bucketOf(delay sim.Slot) int { return bits.Len64(uint64(delay)) }

// Count returns the number of samples.
func (d *Delay) Count() int64 { return d.count }

// Mean returns the average delay in slots (0 with no samples).
func (d *Delay) Mean() float64 {
	if d.count == 0 {
		return 0
	}
	return d.sum / float64(d.count)
}

// Variance returns the population variance of the delays.
func (d *Delay) Variance() float64 {
	if d.count == 0 {
		return 0
	}
	m := d.Mean()
	v := d.sumSq/float64(d.count) - m*m
	return math.Max(v, 0)
}

// StdDev returns the standard deviation of the delays.
func (d *Delay) StdDev() float64 { return math.Sqrt(d.Variance()) }

// Min returns the smallest observed delay.
func (d *Delay) Min() sim.Slot { return d.min }

// Max returns the largest observed delay.
func (d *Delay) Max() sim.Slot { return d.max }

// Percentile returns an upper estimate of the p-th percentile (0 < p <= 100)
// using the power-of-two histogram: the returned value is the top of the
// bucket containing the percentile, so it is within a factor of two of the
// exact order statistic.
func (d *Delay) Percentile(p float64) sim.Slot {
	if d.count == 0 {
		return 0
	}
	target := int64(math.Ceil(p / 100 * float64(d.count)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for k, c := range d.buckets {
		cum += c
		if cum >= target {
			if k == 0 {
				return 0
			}
			top := sim.Slot(1)<<uint(k) - 1
			if top > d.max {
				top = d.max
			}
			return top
		}
	}
	return d.max
}

// Reorder detects out-of-order deliveries per (input, output) flow. A
// delivery is counted as reordered when its sequence number is smaller than
// one already delivered for the same flow — exactly the event that triggers
// spurious TCP fast retransmits.
type Reorder struct {
	n         int
	maxSeen   []int64 // highest Seq delivered on flow in*n+out, -1 if none
	reordered int64
	total     int64
	maxGap    int64 // largest (maxSeen - Seq) over reordered packets
}

// NewReorder builds a detector for an n-port switch.
func NewReorder(n int) *Reorder {
	r := &Reorder{n: n, maxSeen: make([]int64, n*n)}
	for k := range r.maxSeen {
		r.maxSeen[k] = -1
	}
	return r
}

// Observe implements sim.Observer.
func (r *Reorder) Observe(dv sim.Delivery) { r.Add(dv.Packet) }

// Add records the delivery of p.
func (r *Reorder) Add(p sim.Packet) {
	r.total++
	seq := int64(p.Seq)
	m := &r.maxSeen[int(p.In)*r.n+int(p.Out)]
	if seq < *m {
		r.reordered++
		if gap := *m - seq; gap > r.maxGap {
			r.maxGap = gap
		}
		return
	}
	*m = seq
}

// Total returns the number of deliveries observed.
func (r *Reorder) Total() int64 { return r.total }

// Reordered returns the number of out-of-order deliveries.
func (r *Reorder) Reordered() int64 { return r.reordered }

// MaxGap returns the largest sequence-number gap seen on a reordered packet
// (an indicator of how large a resequencing buffer would need to be).
func (r *Reorder) MaxGap() int64 { return r.maxGap }

// Fraction returns the fraction of deliveries that were out of order.
func (r *Reorder) Fraction() float64 {
	if r.total == 0 {
		return 0
	}
	return float64(r.reordered) / float64(r.total)
}

// Multi fans a delivery out to several observers.
type Multi []sim.Observer

// Observe implements sim.Observer. The package's own instruments are
// reached through a type switch, without an interface call each; any other
// observer goes through its Observe. Either way every observer sees the
// delivery in slice order.
func (m Multi) Observe(d sim.Delivery) {
	for _, o := range m {
		switch o := o.(type) {
		case *Delay:
			o.Add(d.Delay())
		case *Reorder:
			o.Add(d.Packet)
		case *Windowed:
			o.Observe(d)
		default:
			o.Observe(d)
		}
	}
}

// Quantiles returns the q-quantiles of xs (a small helper for reports).
func Quantiles(xs []float64, qs ...float64) []float64 {
	if len(xs) == 0 {
		return make([]float64, len(qs))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	out := make([]float64, len(qs))
	for i, q := range qs {
		pos := q * float64(len(sorted)-1)
		lo := int(math.Floor(pos))
		hi := int(math.Ceil(pos))
		frac := pos - float64(lo)
		out[i] = sorted[lo]*(1-frac) + sorted[hi]*frac
	}
	return out
}
