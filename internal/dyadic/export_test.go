package dyadic

// Interval enumeration and sizing helpers only the tests use: they state
// the bear-hug law and the index bijection through them.

// MaxSizeStartingAt returns the largest power-of-two size s <= n such that a
// dyadic interval of size s starts at 0-based port p (i.e. s divides p).
// For p == 0 this is n itself.
func MaxSizeStartingAt(p, n int) int {
	if p == 0 {
		return n
	}
	s := p & -p // largest power of two dividing p
	if s > n {
		s = n
	}
	return s
}

// LoadPerShare returns the per-intermediate-port load s = r / F(r) imposed by
// a VOQ of rate r (the paper's "water pressure per stream").
func LoadPerShare(r float64, n int) float64 {
	return r / float64(StripeSize(r, n))
}

// All enumerates the 2n-1 dyadic intervals over n ports, largest first.
func All(n int) []Interval {
	if !IsPow2(n) {
		panic("dyadic: N must be a power of two")
	}
	var out []Interval
	for size := n; size >= 1; size /= 2 {
		for start := 0; start < n; start += size {
			out = append(out, Interval{Start: start, Size: size})
		}
	}
	return out
}

// FromIndex inverts Index.
func FromIndex(idx, n int) Interval {
	if idx < 0 || idx >= 2*n-1 {
		panic("dyadic: interval index out of range")
	}
	// Find the level: indices [n/s - 1, 2n/s - 1) hold the size-s
	// intervals.
	size := n
	base := 0
	for {
		count := n / size
		if idx < base+count {
			return Interval{Start: (idx - base) * size, Size: size}
		}
		base += count
		size /= 2
	}
}
