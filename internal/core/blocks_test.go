package core

import (
	"math/rand"
	"slices"
	"testing"

	"sprinklers/internal/dyadic"
	"sprinklers/internal/queue"
	"sprinklers/internal/sim"
)

// blockModel drives a gated midStage and a refMidStage with one sequence of
// first-fabric writes and grid pops that no fabric schedules: any input may
// send the next packet of its stripe and any output may advance its grid one
// row at any time, as long as the two things the real fabrics guarantee
// hold — stripes for one (output, interval) fill every row in the order they
// entered the first, and a grid only reaches a row its stripe's packet has
// reached. That leaves the lag between writer and reader, and the mix of
// sizes alive together, to the random source.
type blockModel struct {
	t   *testing.T
	n   int
	sw  *Switch
	ref *refMidStage

	sending []*modelStripe            // per input: the stripe it is sending, or nil
	open    map[[2]int][]*modelStripe // (output, interval index): stripes still filling, oldest first
	row     []int                     // per output: the row its grid is connected to next
	nextID  uint64

	sizeOf map[int32]int // block handle -> log2 of its size, fixed at first use
	live   []int         // per log2 size: stripes holding a block now
	peak   []int
}

type modelStripe struct {
	id     uint64
	out    int
	iv     dyadic.Interval
	formed sim.Slot
	sent   int
}

func newBlockModel(t *testing.T, n int) *blockModel {
	sw := MustNew(Config{N: n})
	return &blockModel{
		t: t, n: n, sw: sw, ref: newRefMidStage(n),
		sending: make([]*modelStripe, n),
		open:    map[[2]int][]*modelStripe{},
		row:     make([]int, n),
		sizeOf:  map[int32]int{},
		live:    make([]int, sw.levels),
		peak:    make([]int, sw.levels),
	}
}

// send transmits the next packet of input i's stripe, starting a stripe of
// 2^k packets for out when the input has none. It reports false when the
// stripe ahead of it in its interval has not filled the row yet.
func (m *blockModel) send(i, out, k int, rng *rand.Rand) bool {
	st := m.sending[i]
	if st == nil {
		size := 1 << uint(k)
		st = &modelStripe{id: m.nextID, out: out, formed: sim.Slot(rng.Intn(1000)),
			iv: dyadic.Interval{Start: rng.Intn(m.n/size) * size, Size: size}}
		m.nextID++
		m.sending[i] = st
		if size > 1 {
			key := [2]int{out, dyadic.Index(st.iv, m.n)}
			m.open[key] = append(m.open[key], st)
		}
	}
	key := [2]int{st.out, dyadic.Index(st.iv, m.n)}
	for _, ahead := range m.open[key] { // none for a single
		if ahead == st {
			break
		}
		if ahead.sent <= st.sent {
			return false
		}
	}
	c := cell{
		pkt: sim.Packet{ID: st.id<<8 | uint64(st.sent), Seq: uint64(rng.Int63()), Arrival: sim.Slot(rng.Intn(1000)),
			In: int32(i), Out: int32(st.out), StripeSize: int32(st.iv.Size)},
		stripeID: st.id,
		formed:   st.formed,
	}
	l := st.iv.Start + st.sent
	if st.iv.Size > 1 {
		m.sw.mid.write(i, &stripe{id: st.id, iv: st.iv, formed: st.formed, out: int32(st.out), served: int32(st.sent)},
			queue.RecordOf(c.pkt))
	} else {
		m.sw.mid.enqueue(l, c)
	}
	m.ref.enqueue(l, c)
	if st.sent == 0 && st.iv.Size > 1 {
		b := m.sw.mid.sending[i]
		k := dyadic.Log2(st.iv.Size)
		if was, seen := m.sizeOf[b]; seen && was != k {
			m.t.Fatalf("block %d of 2^%d records given to a stripe of 2^%d", b, was, k)
		}
		m.sizeOf[b] = k
		m.live[k]++
		m.peak[k] = max(m.peak[k], m.live[k])
	}
	if st.sent++; st.sent == st.iv.Size {
		m.sending[i] = nil
		m.open[key] = slices.DeleteFunc(m.open[key], func(o *modelStripe) bool { return o == st })
	}
	return true
}

// pop advances output j's grid by one row on both stages and compares what
// departs. It reports false, without advancing, when the grid is serving a
// stripe whose packet for this row has not been sent.
func (m *blockModel) pop(j int) bool {
	row := m.row[j]
	if g := m.ref.grids[j]; g.serving && len(m.ref.q[row][j][dyadic.Log2(g.iv.Size)]) == 0 {
		return false
	}
	wasServing := m.ref.grids[j]
	got, gotOK := m.sw.mid.popOutputGated(j, sim.Slot((row-j+m.n)%m.n))
	want, wantOK := m.ref.pop(j, row)
	if got != want || gotOK != wantOK {
		m.t.Fatalf("output %d row %d: departed %+v (%v), reference %+v (%v)", j, row, got, gotOK, want, wantOK)
	}
	if wasServing.serving && !m.ref.grids[j].serving {
		m.live[dyadic.Log2(wasServing.iv.Size)]--
	}
	m.row[j] = (row + 1) % m.n
	return true
}

// check is the accounting invariant: every block ever made is either held by
// a stripe in the stage or on the free list of its own size, and there are
// exactly as many of each size as that size's high-water mark of stripes in
// the stage — so a request met by a block of another size, a block lost, or
// one allocated while a free one of its size existed all fail here.
func (m *blockModel) check() {
	p := &m.sw.mid.blocks
	blocks, records := 0, 0
	for k := range m.peak {
		free := 0
		for b := p.free[k]; b >= 0; b = p.hdr[b].next {
			if m.sizeOf[b] != k {
				m.t.Fatalf("block %d of 2^%d records on the free list of 2^%d", b, m.sizeOf[b], k)
			}
			free++
		}
		if m.live[k]+free != m.peak[k] {
			m.t.Fatalf("2^%d: %d blocks in use + %d free, want the high-water mark %d", k, m.live[k], free, m.peak[k])
		}
		blocks += m.peak[k]
		records += m.peak[k] << uint(k)
	}
	if len(p.hdr) != blocks || len(p.recs) != records {
		m.t.Fatalf("%d blocks over %d records allocated, high-water marks need %d over %d",
			len(p.hdr), len(p.recs), blocks, records)
	}
	if got, want := m.sw.mid.buffered, m.ref.buffered; got != want {
		m.t.Fatalf("stage holds %d packets, reference %d", got, want)
	}
}

// TestStripeBlocksModel drives random interleavings of stripes of every size
// from 1 to N, from eight inputs to three outputs, through the block-backed
// stage and the per-row FIFO reference: every departure identical in every
// field, and the pool's accounting exact after every operation. The first
// half of a trial sends more than it pops, the second half drains.
func TestStripeBlocksModel(t *testing.T) {
	const n, outputs, ops = 16, 3, 6000
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 10; trial++ {
		m := newBlockModel(t, n)
		for op := 0; op < ops; op++ {
			if sendBias := 7 - 4*op/ops; rng.Intn(10) < sendBias {
				m.send(rng.Intn(8), rng.Intn(outputs), rng.Intn(m.sw.levels), rng)
			} else {
				m.pop(rng.Intn(outputs))
			}
			m.check()
		}
		for m.ref.buffered > 0 || slices.ContainsFunc(m.sending, func(st *modelStripe) bool { return st != nil }) {
			for i, st := range m.sending {
				if st != nil {
					m.send(i, 0, 0, rng)
				}
			}
			for j := 0; j < outputs; j++ {
				m.pop(j)
			}
			m.check()
		}
		for k, live := range m.live {
			if live != 0 {
				t.Fatalf("trial %d: %d blocks of 2^%d still held by an empty stage", trial, live, k)
			}
		}
		if m.peak[m.sw.levels-1] == 0 || m.peak[1] < 2 {
			t.Fatalf("trial %d: high-water marks %v never had a full-size stripe and two pairs at once", trial, m.peak)
		}
	}
}
