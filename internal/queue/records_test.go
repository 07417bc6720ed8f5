package queue

import (
	"math/rand"
	"testing"

	"sprinklers/internal/sim"
)

// queueModel pairs RecordFIFOs sharing one RecordPool — one input port's VOQs —
// with plain-slice models, and checks every pop and the pool's accounting.
type queueModel struct {
	t      *testing.T
	pool   RecordPool
	qs     []RecordFIFO
	model  [][]Record
	serial uint64
	peak   int // high-water mark of chunks in use at once
}

func newQueueModel(t *testing.T, voqs int) *queueModel {
	return &queueModel{t: t, qs: make([]RecordFIFO, voqs), model: make([][]Record, voqs)}
}

func (m *queueModel) push(v, count int) {
	m.t.Helper()
	for ; count > 0; count-- {
		m.serial++
		r := Record{ID: m.serial, Seq: uint64(len(m.model[v])), Arrival: sim.Slot(m.serial * 3)}
		m.qs[v].Push(&m.pool, r)
		m.model[v] = append(m.model[v], r)
		m.check()
	}
}

func (m *queueModel) pop(v, count int) {
	m.t.Helper()
	for ; count > 0; count-- {
		if got, want := m.qs[v].Pop(&m.pool), m.model[v][0]; got != want {
			m.t.Fatalf("voq %d: pop = %+v, want %+v", v, got, want)
		}
		m.model[v] = m.model[v][1:]
		m.check()
	}
}

// check verifies the structural invariants: each queue's length, that it
// holds exactly the chunks its records span (none when empty), and that
// free and in-use chunks add up to the fewest pool-doubling blocks that cover
// the high-water mark, i.e. a chunk is only ever allocated when none is free.
func (m *queueModel) check() {
	m.t.Helper()
	inUse := 0
	for v := range m.qs {
		q := &m.qs[v]
		if int(q.n) != len(m.model[v]) {
			m.t.Fatalf("voq %d: n = %d, want %d", v, q.n, len(m.model[v]))
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
// several VOQs of one input against the slice model.
func TestVOQQueueModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		m := newQueueModel(t, 6)
		for op := 0; op < 4000; op++ {
			v := rng.Intn(len(m.qs))
			// Bursts up to three chunks long; the first half of a trial
			// pushes more than it pops and the second half drains.
			count := 1 + rng.Intn(3*chunkRecords)
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
