package core

import (
	"sprinklers/internal/queue"
	"sprinklers/internal/sim"
)

// stripeBlocks stores the multi-packet stripes crossing the gated center
// stage. A stripe of 2^k packets owns one block: a header and
// 2^k consecutive records of one shared slab, slot u holding the packet that
// crosses intermediate port iv.Start+u. A block keeps its records for life
// and returns to the free list of its own size when the stripe has left, so
// a request for 2^k records is only ever met by a block of 2^k: the pool
// never splits or coalesces, and its memory is the sum over sizes of each
// size's high-water mark of stripes in flight. After a traffic shift the
// blocks of a size no VOQ uses any more stay parked.
//
// Both slabs grow by doubling and re-copying, like queue.Bank's: the bytes
// ever allocated are at most twice the final slab, a record is copied O(1)
// times amortised, and while a copy is in progress old and new slab are live
// together (1.5x the new one). Handles are indices, not pointers, so growth
// invalidates nothing and neither slab holds anything for the collector to
// scan.
type stripeBlocks struct {
	hdr     []blockHeader
	recs    []queue.Record
	free    []int32 // free[k]: the last block of 2^k records freed, -1 if none
	outputs int     // outputs the stage serves
}

// blockHeader is what a stripe's packets share — kept once, not per packet —
// plus the fill count the lockstep assertions read.
type blockHeader struct {
	id      uint64   // stripe in the block
	formed  sim.Slot // slot the stripe was completed at its input
	off     int32    // the block's first record in recs; fixed for life
	in      int32    // input port the stripe comes from
	arrived int32    // packets the first fabric has written; 0 while free
	next    int32    // free-list link
}

// newStripeBlocks returns an empty pool for a stage of the given number of
// outputs. A loaded switch has a stripe in service at every output, so the
// slabs start with room for one block each — the headers now, the records
// when the first stripe says how long a block is — rather than doubling their
// way up from one.
func newStripeBlocks(levels, outputs int) stripeBlocks {
	free := make([]int32, levels)
	for k := range free {
		free[k] = -1
	}
	return stripeBlocks{hdr: make([]blockHeader, 0, outputs), free: free, outputs: outputs}
}

// alloc returns the handle of an empty block of 2^k records.
func (p *stripeBlocks) alloc(k int) int32 {
	if b := p.free[k]; b >= 0 {
		p.free[k] = p.hdr[b].next
		return b
	}
	if p.recs == nil {
		p.recs = make([]queue.Record, 0, p.outputs<<uint(k))
	}
	b := int32(len(p.hdr))
	off := int32(len(p.recs))
	p.hdr = extend(p.hdr, 1)
	p.recs = extend(p.recs, 1<<uint(k))
	p.hdr[b].off = off
	return b
}

// release returns block b of 2^k records to its size's free list. The block
// reads as empty from here on, so a grid that reaches for a packet of a
// stripe it has already let go trips the fill-count assertion.
func (p *stripeBlocks) release(b int32, k int) {
	h := &p.hdr[b]
	h.arrived = 0
	h.next = p.free[k]
	p.free[k] = b
}

// extend lengthens s by n zero elements, doubling the capacity when it runs
// out (append's 1.25x steps would re-copy a large slab ~5 times over).
func extend[T any](s []T, n int) []T {
	if len(s)+n > cap(s) {
		next := make([]T, len(s), max(2*cap(s), len(s)+n))
		copy(next, s)
		s = next
	}
	return s[:len(s)+n]
}
