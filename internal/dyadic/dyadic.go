// Package dyadic implements the dyadic interval algebra and the
// rate-proportional stripe sizing rule (Eq. 1) that underpin Sprinklers.
//
// A dyadic interval over N ports (N a power of two) is obtained by dividing
// the whole port range into 2^k equal-size subintervals. In 0-based port
// numbering an interval is identified by its start (divisible by its size)
// and its size (a power of two). Two dyadic intervals either "bear hug" (one
// contains the other) or are disjoint — the structural property that lets
// Largest Stripe First service stripes without interleaving.
package dyadic

import (
	"fmt"
	"math"
	"math/bits"
)

// Interval is a dyadic interval of intermediate ports, covering the 0-based
// ports Start, Start+1, ..., Start+Size-1. Size is a power of two and Start
// is divisible by Size. The zero value is the size-0 invalid interval.
type Interval struct {
	Start int
	Size  int
}

// String renders the interval in the paper's half-open 1-based notation
// (Start, Start+Size].
func (iv Interval) String() string {
	return fmt.Sprintf("(%d,%d]", iv.Start, iv.Start+iv.Size)
}

// Valid reports whether iv is a well-formed dyadic interval within n ports.
func (iv Interval) Valid(n int) bool {
	return iv.Size > 0 && iv.Size <= n &&
		bits.OnesCount(uint(iv.Size)) == 1 &&
		iv.Start >= 0 && iv.Start%iv.Size == 0 &&
		iv.Start+iv.Size <= n
}

// Contains reports whether 0-based port p lies in iv.
func (iv Interval) Contains(p int) bool {
	return p >= iv.Start && p < iv.Start+iv.Size
}

// ContainsInterval reports whether other is entirely within iv.
func (iv Interval) ContainsInterval(other Interval) bool {
	return other.Start >= iv.Start && other.Start+other.Size <= iv.Start+iv.Size
}

// Overlaps reports whether the two intervals share at least one port.
func (iv Interval) Overlaps(other Interval) bool {
	return iv.Start < other.Start+other.Size && other.Start < iv.Start+iv.Size
}

// End returns the first port after the interval (Start+Size).
func (iv Interval) End() int { return iv.Start + iv.Size }

// Containing returns the unique dyadic interval of the given size that
// contains 0-based port p. size must be a power of two.
func Containing(p, size int) Interval {
	return Interval{Start: p &^ (size - 1), Size: size}
}

// IsPow2 reports whether v is a positive power of two.
func IsPow2(v int) bool { return v > 0 && v&(v-1) == 0 }

// StripeSize implements the stripe size determination rule of Eq. 1:
//
//	F(r) = min{N, 2^ceil(log2(r N^2))}
//
// clamped below at 1 (a VOQ always stripes across at least one intermediate
// port; the paper's rule already yields sizes >= 1 for any rate that needs
// more than one port, and a rate of zero trivially fits in a single port).
// n must be a power of two.
func StripeSize(r float64, n int) int {
	if !IsPow2(n) {
		panic("dyadic: N must be a power of two")
	}
	if r <= 0 {
		return 1
	}
	x := r * float64(n) * float64(n)
	if x <= 1 {
		return 1
	}
	k := int(math.Ceil(math.Log2(x)))
	// Guard against floating-point edge cases where x is an exact power of
	// two but Log2 returns fractionally above/below the integer.
	if float64(int(1)<<uint(k-1)) >= x {
		k--
	}
	size := 1 << uint(k)
	if size > n {
		return n
	}
	return size
}

// Levels returns log2(n)+1, the number of distinct stripe sizes for an
// n-port switch (sizes 1, 2, 4, ..., n). n must be a power of two.
func Levels(n int) int {
	if !IsPow2(n) {
		panic("dyadic: N must be a power of two")
	}
	return bits.TrailingZeros(uint(n)) + 1
}

// Log2 returns log2(v) for a power-of-two v.
func Log2(v int) int {
	if !IsPow2(v) {
		panic("dyadic: Log2 of non power of two")
	}
	return bits.TrailingZeros(uint(v))
}

// Index returns a dense index in [0, 2n-1) for interval iv over n ports,
// suitable for array-backed per-interval state. Interval {0,n} maps to 0,
// the two size n/2 intervals to 1..2, and so on down to the n size-1
// intervals.
func Index(iv Interval, n int) int {
	// Intervals of size s start at offset (n/s - 1) and there are n/s of
	// them, indexed by Start/s.
	return n/iv.Size - 1 + iv.Start/iv.Size
}
