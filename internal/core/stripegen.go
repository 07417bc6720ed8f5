package core

import (
	"sprinklers/internal/dyadic"
	"sprinklers/internal/sim"
)

// stripe describes a group of f consecutive packets from one VOQ, where f
// is the VOQ's stripe size when the group was cut. The u-th packet of the
// stripe traverses intermediate port iv.Start+u, so a stripe crosses each
// fabric "in one burst" of consecutive slots. A stripe owns no packets: a
// VOQ's stripes are served in the order they were cut, so its packets are
// always the next iv.Size records at the head of the VOQ's queue.
type stripe struct {
	id     uint64
	iv     dyadic.Interval
	formed sim.Slot // slot the stripe was completed at the input
	out    int32    // destination output port; with the input it names the VOQ
	served int32    // packets the first fabric has taken; 0 unless in service
}

// record is what differs between the packets of one VOQ. In, Out and the
// stripe-size header are rebuilt from the VOQ and the stripe on service,
// and core carries no padding cells, so sim.Packet.Fake is not kept.
type record struct {
	id, seq uint64
	arrival sim.Slot
}

// chunkRecords is the fixed capacity of a chunk. Eight 24-byte records keep
// a chunk (200 B) under the smallest ring a queue.FIFO of packets would
// allocate, so a switch of small N pays less for a VOQ's first buffered
// packet than it would for a private ring.
const chunkRecords = 8

type chunk struct {
	rec  [chunkRecords]record
	next *chunk
}

// chunkPool is one input port's free list of chunks. Every VOQ of the input
// draws from it and returns to it whatever its stripe size, so the input's
// memory is capped by its backlog high-water mark rather than by the sum of
// its VOQs' private high-water marks, and nothing is allocated until a VOQ
// buffers its first packet. Each block doubles the pool — 1, 1, 2, 4 … up to
// maxChunkBlock chunks a block — so an input that buffers little allocates
// little, and N VOQs holding a chunk each get exactly N.
type chunkPool struct {
	free  *chunk
	block int // chunks in the next block: those allocated so far, capped
}

const maxChunkBlock = 32

func (p *chunkPool) get() *chunk {
	if p.free == nil {
		blk := make([]chunk, max(1, p.block))
		p.block = min(p.block+len(blk), maxChunkBlock)
		for i := range blk[1:] {
			blk[i].next = &blk[i+1]
		}
		p.free = &blk[0]
	}
	c := p.free
	p.free, c.next = c.next, nil
	return c
}

func (p *chunkPool) put(c *chunk) {
	c.next = p.free
	p.free = c
}

// voqQueue is a FIFO of records in a chain of chunks. An empty queue holds
// no chunk.
type voqQueue struct {
	head, tail *chunk
	off        int32 // position of the head record in the head chunk
	n          int32 // records queued
}

func (q *voqQueue) push(p *chunkPool, r record) {
	slot := (q.off + q.n) % chunkRecords
	if slot == 0 { // no chunk yet (off is 0 when n is), or the tail is full
		c := p.get()
		if q.n == 0 {
			q.head = c
		} else {
			q.tail.next = c
		}
		q.tail = c
	}
	q.tail.rec[slot] = r
	q.n++
}

// pop removes and returns the head record; the queue must not be empty.
func (q *voqQueue) pop(p *chunkPool) record {
	c := q.head
	r := c.rec[q.off]
	q.off++
	q.n--
	if q.off == chunkRecords || q.n == 0 {
		q.head, q.off = c.next, 0
		p.put(c)
	}
	return r
}

// voqState is the per-VOQ routing state at an input port.
type voqState struct {
	out     int
	primary int // OLS-assigned primary intermediate port
	size    int // current stripe size F(r), a power of two
	iv      dyadic.Interval

	// q holds every packet of the VOQ still at the input, oldest first: the
	// packets of stripes already cut and awaiting service (gated scheduler
	// only; the greedy one copies them out as it cuts), then the ready
	// packets accumulating toward the next stripe.
	q     voqQueue
	ready int

	// committed counts this VOQ's packets inside the switch beyond the
	// ready packets (in cut stripes at the input or in the center stage).
	// The adaptive clearance phase of Sec. 5 waits for it to reach zero
	// before changing the stripe size.
	committed int
	// draining is set while a resize is waiting for clearance; stripe
	// formation is suspended so no packets of the old size remain when
	// the new size takes effect.
	draining bool
	pending  int // stripe size to adopt once drained (0 = none)
}

// initialSize returns the stripe size a VOQ starts with under cfg.
func initialSize(cfg Config, i, j int) int {
	if cfg.Rates != nil {
		return dyadic.StripeSize(cfg.Rates[i][j], cfg.N)
	}
	if cfg.DefaultStripeSize != 0 {
		return cfg.DefaultStripeSize
	}
	return 1
}

// setSize installs a stripe size and the corresponding dyadic interval
// around the VOQ's primary intermediate port (Sec. 3.3.1: the unique dyadic
// interval of size f containing the primary port).
func (v *voqState) setSize(f int) {
	v.size = f
	v.iv = dyadic.Containing(v.primary, f)
}
