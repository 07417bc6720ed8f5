package queue

import "sprinklers/internal/sim"

// Record is what differs between the packets of one VOQ. In and Out are the
// VOQ's own index and whatever header the architecture adds is the same for
// the whole queue, so the switch that owns the VOQ rebuilds the sim.Packet
// where it takes a record out. Seq is kept: a Trace source need not number
// a flow consecutively, so it cannot be derived from a per-VOQ counter.
type Record struct {
	ID, Seq uint64
	Arrival sim.Slot
}

// RecordOf returns the part of p a VOQ keeps.
func RecordOf(p sim.Packet) Record { return Record{ID: p.ID, Seq: p.Seq, Arrival: p.Arrival} }

// Packet rebuilds the packet r was taken from, given the VOQ it was in.
func (r Record) Packet(in, out int) sim.Packet {
	return sim.Packet{ID: r.ID, Seq: r.Seq, Arrival: r.Arrival, In: int32(in), Out: int32(out)}
}

// chunkRecords is the fixed capacity of a chunk. Eight 24-byte records keep
// a chunk (200 B) under the smallest ring a FIFO of packets would allocate,
// so a switch of small N pays less for a VOQ's first buffered packet than it
// would for a private ring.
const chunkRecords = 8

type chunk struct {
	rec  [chunkRecords]Record
	next *chunk
}

// RecordPool is one input port's free list of chunks. Every VOQ of the input
// draws from it and returns to it however many packets the VOQ accumulates
// before it is served, so the input's memory is capped by its backlog
// high-water mark rather than by the sum of its VOQs' private high-water
// marks, and nothing is allocated until a VOQ buffers its first packet. Each
// block doubles the pool — 1, 1, 2, 4 … up to maxChunkBlock chunks a block —
// so an input that buffers little allocates little, and N VOQs holding a
// chunk each get exactly N. The zero value is an empty pool.
type RecordPool struct {
	free  *chunk
	block int // chunks in the next block: those allocated so far, capped
}

const maxChunkBlock = 32

func (p *RecordPool) get() *chunk {
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

func (p *RecordPool) put(c *chunk) {
	c.next = p.free
	p.free = c
}

// RecordFIFO is a FIFO of records in a chain of chunks: the per-(input,
// output) VOQ of every architecture that keeps one. The zero value is an
// empty queue, and an empty queue holds no chunk. A queue is 24 bytes and
// must always be used with the same pool, its input's.
//
// The one-queue-per-input baseline and the hashing switch (queues keyed by
// intermediate port, outputs mixed) keep a FIFO of whole packets: their index
// does not say where a packet is going.
type RecordFIFO struct {
	head, tail *chunk
	off        int32 // position of the head record in the head chunk
	n          int32 // records queued
}

// Len returns the number of queued records.
func (q *RecordFIFO) Len() int { return int(q.n) }

// Push appends r to the tail of the queue.
func (q *RecordFIFO) Push(p *RecordPool, r Record) {
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

// Pop removes and returns the head record; the queue must not be empty.
func (q *RecordFIFO) Pop(p *RecordPool) Record {
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

// Peek returns the head record without removing it; the queue must not be
// empty.
func (q *RecordFIFO) Peek() Record { return q.head.rec[q.off] }
