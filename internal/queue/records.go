package queue

import (
	"fmt"

	"sprinklers/internal/sim"
)

// Record is what differs between the packets of one VOQ and cannot be
// derived from where the packet sits: its arrival slot, 8 bytes. (In, Out,
// Seq) names a packet, and all three are implied: In and Out are the VOQ's
// own index, and Seq is the queue position, since a source numbers each flow
// 0, 1, 2 … (sim.Packet.Seq), so the packets of one VOQ carry consecutive
// Seqs and the queue keeps only its head's (RecordFIFO.headSeq). Whatever
// header the architecture adds is the same for the whole queue. The switch
// that owns the VOQ rebuilds the sim.Packet where it takes a record out.
type Record struct {
	Arrival sim.Slot
}

// Packet rebuilds the packet r was taken from, given its Seq and the VOQ it
// was in.
func (r Record) Packet(seq uint64, in, out int) sim.Packet {
	return sim.Packet{Seq: seq, Arrival: r.Arrival, In: int32(in), Out: int32(out)}
}

// PortRecord is a packet in a queue whose index names only one of its ports:
// a center-stage queue per (port, output) names Out, and an input queue that
// mixes outputs names In. Neither can derive Seq from the queue position, so
// the record keeps Seq, Arrival and the port the index does not name, 24
// bytes, and the switch rebuilds the packet where it takes the record out.
type PortRecord struct {
	Seq     uint64
	Arrival sim.Slot
	Port    int32
}

// chunkRecords is the fixed capacity of a chunk. Eight 8-byte records and
// the link make a 72-byte chunk, under a third of the smallest ring a FIFO of
// packets would allocate (8 × 32 B), so a switch of small N pays little for a
// VOQ's first buffered packet. Sixteen records (136 B) allocated 2.6 % less
// on the sprinklers-n128 benchmark, whose VOQs fill 128-packet stripes, but
// 5–7 % more on fig6-n32 and grid-cold, and ran sprinklers-n128 slower
// (2-vCPU Xeon).
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
// empty queue, and an empty queue holds no chunk. A queue is 32 bytes and
// must always be used with the same pool, its input's.
//
// The queue keeps the Seq of its head record, and the record k places behind
// the head has Seq headSeq+k. An empty queue takes the Seq of the next packet
// pushed, whatever it is: a switch may serve some of a flow's packets without
// queueing them (core's size-1 stripes), so a VOQ sees a gap only where it is
// empty.
//
// The one-queue-per-input baseline and the hashing switch (queues keyed by
// intermediate port, outputs mixed) keep a FIFO of PortRecords instead: their
// index does not say where a packet is going, nor give its Seq.
type RecordFIFO struct {
	head, tail *chunk
	headSeq    uint64 // Seq of the head record
	off        int32  // position of the head record in the head chunk
	n          int32  // records queued
}

// Len returns the number of queued records.
func (q *RecordFIFO) Len() int { return int(q.n) }

// Push appends p's record to the tail of the queue. p.Seq must follow the
// tail's Seq when the queue is not empty; Push panics otherwise, since the
// queue could not give the packet its Seq back.
func (q *RecordFIFO) Push(pool *RecordPool, p sim.Packet) {
	if q.n == 0 {
		q.headSeq = p.Seq
	} else if want := q.headSeq + uint64(q.n); p.Seq != want {
		panic(fmt.Sprintf("queue: flow (%d, %d) offered Seq %d, want %d: a source must number a flow 0, 1, 2 …",
			p.In, p.Out, p.Seq, want))
	}
	slot := (q.off + q.n) % chunkRecords
	if slot == 0 { // no chunk yet (off is 0 when n is), or the tail is full
		c := pool.get()
		if q.n == 0 {
			q.head = c
		} else {
			q.tail.next = c
		}
		q.tail = c
	}
	q.tail.rec[slot] = Record{Arrival: p.Arrival}
	q.n++
}

// Pop removes the head record and returns it with its Seq; the queue must
// not be empty.
func (q *RecordFIFO) Pop(pool *RecordPool) (Record, uint64) {
	c := q.head
	r, seq := c.rec[q.off], q.headSeq
	q.off++
	q.n--
	q.headSeq++
	if q.off == chunkRecords || q.n == 0 {
		q.head, q.off = c.next, 0
		pool.put(c)
	}
	return r, seq
}
