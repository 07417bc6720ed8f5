package queue

import "math/bits"

// The functions below treat a []uint64 as a fixed-width bit set: bit j lives
// in word j/64. The input schedulers of FOFF and the full-frame switches
// keep one such set per input over its N VOQs, so choosing the next VOQ to
// serve is a find-first-set instead of a walk over all N queues.

// BitWords returns the number of words a bit set over n elements needs.
func BitWords(n int) int { return (n + 63) >> 6 }

// SetBit sets bit j of bm.
func SetBit(bm []uint64, j int) { bm[j>>6] |= 1 << (uint(j) & 63) }

// ClearBit clears bit j of bm.
func ClearBit(bm []uint64, j int) { bm[j>>6] &^= 1 << (uint(j) & 63) }

// NextSet returns the first set bit of bm at or cyclically after start —
// the order start, start+1, ..., 64*len(bm)-1, 0, ..., start-1 — or -1
// when no bit is set. It is the round-robin scan "first ready queue from
// the pointer onward" in one TrailingZeros64 per word. start must lie in
// [0, 64*len(bm)).
func NextSet(bm []uint64, start int) int {
	w0 := start >> 6
	below := uint64(1)<<(uint(start)&63) - 1 // bits of word w0 before start
	if m := bm[w0] &^ below; m != 0 {
		return w0<<6 + bits.TrailingZeros64(m)
	}
	for w := w0 + 1; w < len(bm); w++ {
		if bm[w] != 0 {
			return w<<6 + bits.TrailingZeros64(bm[w])
		}
	}
	for w := 0; w < w0; w++ {
		if bm[w] != 0 {
			return w<<6 + bits.TrailingZeros64(bm[w])
		}
	}
	if m := bm[w0] & below; m != 0 {
		return w0<<6 + bits.TrailingZeros64(m)
	}
	return -1
}
