package core

import (
	"fmt"
	"math/bits"

	"sprinklers/internal/dyadic"
	"sprinklers/internal/queue"
	"sprinklers/internal/sim"
)

// midStage implements the intermediate ports and, for the gated scheduler,
// the per-output virtual schedule grids of Sec. 3.4.3.
//
// Physically each intermediate port m keeps one FIFO per (output, stripe
// size) pair — the same data structure as the input ports, with each
// instance's rows distributed across the N intermediate ports. The only
// cross-port information used is the stripe size carried in each packet's
// internal header, exactly the log2 log2 N bits the paper budgets; the
// stripe id is carried alongside purely to power runtime assertions.
//
// # Gated: a stripe is a block
//
// Under GatedLSF those N x N x (log2 N + 1) FIFOs are not stored. A stripe
// starts only at the first port of its dyadic interval and then advances one
// port per slot, on the first fabric and on the second alike. So of two
// stripes for one (output, interval), the one whose first packet reached the
// interval's first row earlier reaches every later row earlier by the same
// number of slots, and the grid, having started it first, takes it first at
// every row: the FIFOs of the 2^k rows of an interval are 2^k copies of one
// queue of stripes, each offset by its row. The stage keeps that one queue —
// N-1 queues per output in a queue.Bank of block handles, the mirror of
// inputPort.stripes — and a stripe's packets sit in one block of 2^k
// consecutive 24-byte records (blocks.go), packet u in slot u. The input's
// u-th transmission writes slot u, finding the block through the per-input
// sending handle (a gated input sends one stripe at a time); the grid pops
// the handle when it starts the stripe and reads slots 0 .. 2^k-1 in the
// next 2^k slots. What the packets of a stripe share — input, output, size,
// stripe id, formation slot — is in the block's header once and goes back
// into the cell where the output takes it (midStage.take), as inputPort.pop
// does on the other side. A size-1 stripe is its cell and stays one, in a
// queue.Bank[cell] of N queues per output.
//
// The block is the simulator's bookkeeping, not state the ports share: slot
// u holds exactly what port iv.Start+u's FIFO would, and the stripe-id and
// fill-count assertions in write and take fail if the stage is ever asked
// for a packet those FIFOs could not have produced in that slot.
//
// The paper's FIFOs survive as refMidStage in midref_test.go, which
// TestCenterStageMatchesReference runs against this stage slot by slot.
//
// # Greedy: the per-row bank
//
// GreedyLSF cannot share this. Its row scan sends and serves whatever is
// largest at the connected row, so a larger stripe that turns up mid-service
// holds a stripe's packets back at the rows still ahead and not at those
// already passed. Two stripes of one (output, interval) can then stand in
// one order at one row and in the other at the next: no per-interval order
// exists, which is also why greedy reorders. It keeps the full bank of
// cells, indexed ((j*N + m)*levels + k) output-major, one nonempty-bitmap
// word per (j, m).
//
// # Storage
//
// Everything is slab-backed: a queue.Bank shares its queued elements in one
// node slab whose free list caps memory at the backlog high-water mark, the
// blocks come from per-size free lists over one record slab, and both stop
// allocating once the workload reaches steady state. The output index is the
// major axis because the gated grid sweep advances m by one per slot for
// each output, which then walks the bitmap sequentially.
type midStage struct {
	sw         *Switch
	n          int
	gated      bool
	cellLevels int                // cell queues per (output, port): log2(N)+1 greedy, 1 gated
	bank       *queue.Bank[cell]  // queue (j*n + m)*cellLevels + k
	stripes    *queue.Bank[int32] // gated: block handles, queue stripeQueue(j, iv)
	blocks     stripeBlocks       // gated: the stripes' packets
	buffered   int                // packets in the stage
	// bitmap[j*n+m] bit k: greedy, the (m,j,k) cell queue is nonempty. Gated,
	// bit 0 says the same of port m's singles and bit k >= 1 that a size-2^k
	// stripe is queued for the interval starting at m.
	bitmap  []uint64
	grids   []outputGrid
	sending []int32 // gated: block of the multi-packet stripe input i is sending
}

// outputGrid is the service state of one output's virtual schedule grid: at
// most one stripe is "in service" at a time, and once started it is drained
// from consecutive intermediate ports in consecutive slots, which is what
// makes its packets arrive at the output in one burst.
type outputGrid struct {
	serving bool
	block   int32 // the stripe's block
	iv      dyadic.Interval
	next    int
	id      uint64
}

func newMidStage(sw *Switch) *midStage {
	ms := &midStage{
		sw:         sw,
		n:          sw.n,
		gated:      sw.cfg.Scheduler == GatedLSF,
		cellLevels: sw.levels,
		bitmap:     make([]uint64, sw.n*sw.n),
		grids:      make([]outputGrid, sw.n),
	}
	if ms.gated {
		ms.cellLevels = 1
		// Intervals of size >= 2 are dyadic indices 0 .. n-2.
		ms.stripes = queue.NewBank[int32](sw.n * (sw.n - 1))
		ms.stripes.Grow(sw.n) // as the blocks: one per output to begin with
		ms.blocks = newStripeBlocks(sw.levels, sw.n)
		ms.sending = make([]int32, sw.n)
	}
	ms.bank = queue.NewBank[cell](sw.n * sw.n * ms.cellLevels)
	return ms
}

// stripeQueue is the index, in ms.stripes, of the queue of stripes for output
// j whose interval is iv.
func (ms *midStage) stripeQueue(j int, iv dyadic.Interval) int {
	return j*(ms.n-1) + dyadic.Index(iv, ms.n)
}

// enqueue buffers a cell arriving at intermediate port l over the first
// fabric: a greedy cell, or a gated size-1 stripe. A gated multi-packet
// stripe's packets go through write.
func (ms *midStage) enqueue(l int, c cell) {
	k := dyadic.Log2(int(c.pkt.StripeSize))
	j := int(c.pkt.Out)
	ms.bank.Push((j*ms.n+l)*ms.cellLevels+k, c)
	ms.bitmap[j*ms.n+l] |= 1 << uint(k)
	ms.buffered++
}

// write buffers packet st.served of the gated multi-packet stripe st, sent
// by input in, at intermediate port st.iv.Start+st.served. The first packet
// opens a block and queues it for the output; the rest find the block
// through their input, which sends one stripe at a time.
func (ms *midStage) write(in int, st *stripe, r queue.Record) {
	j := int(st.out)
	u := int(st.served)
	if u == 0 {
		k := dyadic.Log2(st.iv.Size)
		b := ms.blocks.alloc(k)
		h := &ms.blocks.hdr[b]
		h.id, h.formed, h.in = st.id, st.formed, int32(in)
		ms.stripes.Push(ms.stripeQueue(j, st.iv), b)
		ms.bitmap[j*ms.n+st.iv.Start] |= 1 << uint(k)
		ms.sending[in] = b
	}
	h := &ms.blocks.hdr[ms.sending[in]]
	if h.id != st.id || int(h.arrived) != u {
		panic(fmt.Sprintf("core: input %d sent packet %d of stripe %d into the block of stripe %d, which holds %d",
			in, u, st.id, h.id, h.arrived))
	}
	ms.blocks.recs[int(h.off)+u] = r
	h.arrived++
	ms.buffered++
}

// step executes one second-fabric slot: every popped cell is emitted
// immediately, in output order (gated) or intermediate-port order (greedy).
func (ms *midStage) step(t sim.Slot, deliver sim.DeliverFunc) {
	if ms.gated {
		for j := 0; j < ms.n; j++ {
			if c, ok := ms.popOutputGated(j, t); ok {
				ms.sw.emit(c, t, deliver)
			}
		}
		return
	}
	for m := 0; m < ms.n; m++ {
		if c, ok := ms.popPortGreedy(m, t); ok {
			ms.sw.emit(c, t, deliver)
		}
	}
}

// popOutputGated advances output j's virtual grid by one slot and returns
// the cell (if any) that departs. The fabric connects output j to
// intermediate port m = (j + t) mod N, i.e. the service sweeps the grid
// rows top to bottom, one per slot.
func (ms *midStage) popOutputGated(j int, t sim.Slot) (cell, bool) {
	g := &ms.grids[j]
	m := ms.sw.intermediateFor(j, t)
	if !g.serving {
		// Start the oldest of the largest stripes that can start here. Bit
		// k >= 1 of a row's word is set by a stripe's first packet, at the
		// first row of the stripe's interval — a row 2^k divides — and
		// cleared when the last such stripe has been started, so the highest
		// set bit is the answer and the scan is one bit operation.
		bm := ms.bitmap[j*ms.n+m]
		if bm == 0 {
			return cell{}, false
		}
		k := bits.Len64(bm) - 1
		if k == 0 {
			return ms.pop(m, j, 0), true
		}
		iv := dyadic.Interval{Start: m, Size: 1 << uint(k)}
		q := ms.stripeQueue(j, iv)
		b := ms.stripes.Pop(q) // panics on an empty queue, guarding the bitmap
		if ms.stripes.Empty(q) {
			ms.bitmap[j*ms.n+m] &^= 1 << uint(k)
		}
		*g = outputGrid{serving: true, block: b, iv: iv, id: ms.blocks.hdr[b].id}
	}
	if g.iv.Start+g.next != m {
		panic(fmt.Sprintf("core: output %d grid lost lockstep: stripe %v next %d, connection %d",
			j, g.iv, g.next, m))
	}
	c := ms.take(g, j)
	if g.next++; g.next == g.iv.Size {
		g.serving = false
		ms.blocks.release(g.block, dyadic.Log2(g.iv.Size))
	}
	return c, true
}

// take removes packet g.next of the stripe output j's grid is serving from
// the stripe's block and rebuilds its cell: the record is what the packets
// of a stripe do not share, the header what they do. The block must still be
// that stripe's, and the first fabric must have delivered the packet — it
// runs at least one slot ahead of the grid on every row of the interval.
func (ms *midStage) take(g *outputGrid, j int) cell {
	h := &ms.blocks.hdr[g.block]
	if h.id != g.id {
		panic(fmt.Sprintf("core: output %d grid served stripe %d while %d was in service",
			j, h.id, g.id))
	}
	if int(h.arrived) <= g.next {
		panic(fmt.Sprintf("core: output %d grid reached packet %d of stripe %d with %d arrived",
			j, g.next, g.id, h.arrived))
	}
	r := &ms.blocks.recs[int(h.off)+g.next]
	ms.buffered--
	return cell{
		pkt: sim.Packet{ID: r.ID, Seq: r.Seq, Arrival: r.Arrival,
			In: h.in, Out: int32(j), StripeSize: int32(g.iv.Size)},
		stripeID: h.id,
		formed:   h.formed,
	}
}

// popPortGreedy is the stripe-oblivious variant: intermediate port m scans
// its own row of the connected output's grid, j = secondStage(m, t), from
// largest stripe size to smallest and returns the first head-of-line packet
// found.
func (ms *midStage) popPortGreedy(m int, t sim.Slot) (cell, bool) {
	j := ms.sw.secondStage(m, t)
	bm := ms.bitmap[j*ms.n+m]
	if bm == 0 {
		return cell{}, false
	}
	k := bits.Len64(bm) - 1
	return ms.pop(m, j, k), true
}

func (ms *midStage) pop(m, j, k int) cell {
	q := (j*ms.n+m)*ms.cellLevels + k
	c := ms.bank.Pop(q) // panics on an empty queue, guarding the bitmap
	if ms.bank.Empty(q) {
		ms.bitmap[j*ms.n+m] &^= 1 << uint(k)
	}
	ms.buffered--
	return c
}

// queueLen reports, for tests, the number of packets buffered at
// intermediate port m for output j across all stripe sizes, wherever they
// sit: in the cell bank, in the block of a queued stripe whose interval
// covers m, or in the block of the stripe in service.
func (ms *midStage) queueLen(m, j int) int {
	total := 0
	for k := 0; k < ms.cellLevels; k++ {
		total += ms.bank.QueueLen((j*ms.n+m)*ms.cellLevels + k)
	}
	if !ms.gated {
		return total
	}
	for size := 2; size <= ms.n; size *= 2 {
		iv := dyadic.Containing(m, size)
		ms.stripes.Each(ms.stripeQueue(j, iv), func(b int32) {
			if int(ms.blocks.hdr[b].arrived) > m-iv.Start {
				total++
			}
		})
	}
	if g := &ms.grids[j]; g.serving && g.iv.Contains(m) {
		if u := m - g.iv.Start; u >= g.next && int(ms.blocks.hdr[g.block].arrived) > u {
			total++
		}
	}
	return total
}
