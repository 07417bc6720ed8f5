package queue

import (
	"math/rand"
	"testing"
	"unsafe"

	"sprinklers/internal/sim"
)

// queueModel pairs RecordFIFOs sharing one RecordPool — one input port's VOQs —
// with plain-slice models of the packets they were given, and checks every
// pop, the Seq each queue derives, and the pool's accounting.
type queueModel struct {
	t      *testing.T
	pool   RecordPool
	qs     []RecordFIFO
	model  [][]sim.Packet
	next   []uint64 // per VOQ: the Seq of the flow's next packet
	serial uint64
	peak   int // high-water mark of chunks in use at once
}

func newQueueModel(t *testing.T, voqs int) *queueModel {
	return &queueModel{t: t, qs: make([]RecordFIFO, voqs), model: make([][]sim.Packet, voqs),
		next: make([]uint64, voqs)}
}

func (m *queueModel) push(v, count int) {
	m.t.Helper()
	for ; count > 0; count-- {
		m.serial++
		p := sim.Packet{Seq: m.next[v], Arrival: sim.Slot(m.serial * 3), Out: int32(v)}
		m.next[v]++
		m.qs[v].Push(&m.pool, p)
		m.model[v] = append(m.model[v], p)
		m.check()
	}
}

// skip lets count packets of VOQ v's flow go by without being queued, as
// core's size-1 stripes do; v must be empty, so its next push resyncs it.
func (m *queueModel) skip(v int, count uint64) {
	m.t.Helper()
	if len(m.model[v]) != 0 {
		m.t.Fatalf("voq %d: skip on a queue of %d", v, len(m.model[v]))
	}
	m.next[v] += count
}

// refuse offers non-empty VOQ v a packet whose Seq does not follow its
// tail, and checks that Push panics and leaves the queue as it was.
func (m *queueModel) refuse(v int, seq uint64) {
	m.t.Helper()
	defer func() {
		if recover() == nil {
			m.t.Fatalf("voq %d: Push accepted Seq %d where %d is next", v, seq, m.next[v])
		}
		m.check()
	}()
	m.qs[v].Push(&m.pool, sim.Packet{Seq: seq, Out: int32(v)})
}

func (m *queueModel) pop(v, count int) {
	m.t.Helper()
	for ; count > 0; count-- {
		r, seq := m.qs[v].Pop(&m.pool)
		if got, want := r.Packet(seq, 0, v), m.model[v][0]; got != want {
			m.t.Fatalf("voq %d: pop = %+v, want %+v", v, got, want)
		}
		m.model[v] = m.model[v][1:]
		m.check()
	}
}

// check verifies the structural invariants: each queue's length and head
// (record and derived Seq), that it holds exactly the chunks its records span
// (none when empty), and that free and in-use chunks add up to the fewest
// pool-doubling blocks that cover the high-water mark, i.e. a chunk is only
// ever allocated when none is free.
func (m *queueModel) check() {
	m.t.Helper()
	inUse := 0
	for v := range m.qs {
		q := &m.qs[v]
		if int(q.n) != len(m.model[v]) {
			m.t.Fatalf("voq %d: n = %d, want %d", v, q.n, len(m.model[v]))
		}
		if q.n > 0 {
			if r, seq := q.head.rec[q.off], q.headSeq; r.Packet(seq, 0, v) != m.model[v][0] {
				m.t.Fatalf("voq %d: head %+v with Seq %d, want %+v", v, r, seq, m.model[v][0])
			}
		}
		chained := 0
		for c := q.head; c != nil; c = c.next {
			chained++
		}
		if want := (int(q.off) + int(q.n) + chunkRecords - 1) / chunkRecords; chained != want {
			m.t.Fatalf("voq %d: %d records from offset %d chained in %d chunks, want %d",
				v, q.n, q.off, chained, want)
		}
		inUse += chained
	}
	m.peak = max(m.peak, inUse)
	free := 0
	for c := m.pool.free; c != nil; c = c.next {
		free++
	}
	allocated := 0
	for allocated < m.peak { // blocks of 1, 1, 2, 4 ... maxChunkBlock chunks
		allocated += min(max(1, allocated), maxChunkBlock)
	}
	if inUse+free != allocated {
		m.t.Fatalf("%d chunks in use + %d free, want %d allocated for a high-water mark of %d",
			inUse, free, allocated, m.peak)
	}
}

// TestVOQQueueBoundaries walks the named edge cases of the chunk chain.
func TestVOQQueueBoundaries(t *testing.T) {
	for _, count := range []int{chunkRecords, chunkRecords + 1, 2 * chunkRecords} {
		m := newQueueModel(t, 1)
		m.push(0, count) // exactly one chunk, one record into a second, two full
		m.pop(0, count)
		if m.qs[0].head != nil || m.qs[0].off != 0 {
			t.Fatalf("%d records: emptied queue kept a chunk (off %d)", count, m.qs[0].off)
		}
	}
	t.Run("pop to empty then push", func(t *testing.T) {
		m := newQueueModel(t, 1)
		m.push(0, 3)
		m.pop(0, 3) // empties mid-chunk; the offset must restart at 0
		m.push(0, chunkRecords+2)
		m.pop(0, chunkRecords+2)
	})
	t.Run("resync on empty", func(t *testing.T) {
		// Packets served without being queued leave a gap the empty queue
		// takes up from its next push, down to a Seq near the top of the
		// range that the derived Seqs then carry across a chunk boundary.
		m := newQueueModel(t, 1)
		m.push(0, 3)
		m.pop(0, 3)
		m.skip(0, 5)
		m.push(0, chunkRecords+1)
		m.pop(0, chunkRecords+1)
		m.skip(0, ^uint64(0)-m.next[0]-2*chunkRecords)
		m.push(0, 2*chunkRecords)
		m.pop(0, 2*chunkRecords)
	})
	t.Run("gap and duplicate refused", func(t *testing.T) {
		m := newQueueModel(t, 1)
		m.push(0, chunkRecords+1) // head in one chunk, tail in the next
		for _, seq := range []uint64{m.next[0] + 1, m.next[0] - 1, 0} {
			m.refuse(0, seq) // gap, duplicate tail, duplicate head
		}
		m.pop(0, chunkRecords+1)
	})
	t.Run("head and tail in one chunk", func(t *testing.T) {
		m := newQueueModel(t, 1)
		m.push(0, 5)
		m.pop(0, 4)
		m.push(0, 2) // records at offsets 4..6 of a single chunk
		if m.qs[0].head != m.qs[0].tail {
			t.Fatal("three records at offset 4 span more than one chunk")
		}
		m.push(0, 2) // crosses into a second chunk with the head mid-chunk
		m.pop(0, 5)
	})
	t.Run("reuse across stripe sizes", func(t *testing.T) {
		// A VOQ cutting 16-packet stripes and one cutting 2-packet stripes
		// take turns filling and draining. Whatever one returns the other
		// reuses: check() fails on any allocation past the high-water mark.
		m := newQueueModel(t, 2)
		for round := 0; round < 50; round++ {
			m.push(0, 16)
			m.pop(0, 16)
			m.push(1, 2)
			m.pop(1, 2)
		}
		if m.peak != 2 {
			t.Fatalf("peak %d chunks, want 2", m.peak)
		}
	})
}

// TestVOQQueueModel drives random interleavings of pushes and pops over
// several VOQs of one input against the slice model. A VOQ that empties
// sometimes lets part of its flow go by unqueued, so a queue resyncs its
// Seq mid-trial, and a non-empty one is sometimes offered a gap or a
// duplicate, which it must refuse.
func TestVOQQueueModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		m := newQueueModel(t, 6)
		for op := 0; op < 4000; op++ {
			v := rng.Intn(len(m.qs))
			// Bursts up to three chunks long; the first half of a trial
			// pushes more than it pops and the second half drains.
			count := 1 + rng.Intn(3*chunkRecords)
			if queued := len(m.model[v]); queued == 0 && rng.Intn(4) == 0 {
				m.skip(v, uint64(rng.Intn(3*chunkRecords)))
			} else if queued > 0 && rng.Intn(8) == 0 {
				if rng.Intn(2) == 0 {
					m.refuse(v, m.next[v]+1+uint64(rng.Intn(3)))
				} else {
					m.refuse(v, m.next[v]-1-uint64(rng.Intn(queued)))
				}
			}
			if pushBias := 6 - 4*op/4000; rng.Intn(10) < pushBias {
				m.push(v, count)
			} else {
				m.pop(v, min(count, len(m.model[v])))
			}
		}
		for v := range m.qs {
			m.pop(v, len(m.model[v]))
		}
	}
}

// TestBufferLayout pins what a packet costs in a queue whose index names one
// of its ports: a PortRecord is 24 bytes (the baseline's and the hashing
// switch's input queues, FOFF's pacing FIFOs), and in the center stage's
// Bank it is a node of at most 32, which a whole sim.Packet's (40) is not.
// TestBufferLayout in internal/foff pins FOFF's resequencing window slot.
func TestBufferLayout(t *testing.T) {
	if got := unsafe.Sizeof(PortRecord{}); got != 24 {
		t.Errorf("PortRecord is %d bytes, want 24", got)
	}
	if got := unsafe.Sizeof(node[PortRecord]{}); got > 32 {
		t.Errorf("a center-stage Bank node is %d bytes, want at most 32", got)
	}
}
