package foff

// FOFF's output side as first written, kept as the oracle of Switch.Step's
// (TestPickMatchesReferenceScan): a resequencer that holds whole deliveries
// per flow and a pacer of whole deliveries per output, fed by one
// stage-wide pass of the center stage and drained by one pass over the
// outputs.

import (
	"math/rand"
	"testing"
	"testing/quick"

	"sprinklers/internal/queue"
	"sprinklers/internal/sim"
)

// refResequencer restores per-flow packet order at the switch outputs. FOFF
// delivers packets up to O(N^2) positions out of order; the resequencer
// holds early packets until all predecessors have been released, exactly
// like the per-output reordering buffers of Sec. 2.2. Delay is charged up to
// the release slot, so resequencing latency is part of the measured delay.
//
// State is one flat slice over the N² flows and, for a flow that has ever
// run ahead of itself, a ring window that grows to the flow's largest
// displacement and is then reused, so a warmed-up resequencer allocates
// nothing.
type refResequencer struct {
	n       int
	flows   []refFlow // flow in*n+out
	out     sim.Observer
	maxHold int
	held    int
}

// refFlow is one flow's reordering buffer. A held packet with sequence
// number s sits at win[s & (len(win)-1)]; every held s lies in
// (next, next+len(win)), so distinct held packets never share a slot.
type refFlow struct {
	next uint64 // sequence number to release next
	held int    // occupied slots of win
	win  []refSlot
}

type refSlot struct {
	d  sim.Delivery
	ok bool
}

// newRefResequencer wraps out so that it sees every flow's packets of an
// n-port switch in sequence order, each stamped with the slot at which the
// resequencer released it.
func newRefResequencer(n int, out sim.Observer) *refResequencer {
	return &refResequencer{n: n, flows: make([]refFlow, n*n), out: out}
}

// Observe implements sim.Observer.
func (r *refResequencer) Observe(d sim.Delivery) {
	f := &r.flows[int(d.Packet.In)*r.n+int(d.Packet.Out)]
	seq := d.Packet.Seq
	switch {
	case seq == f.next:
		r.out.Observe(d)
		f.next++
		// Release any buffered successors; they depart at the slot the
		// blocking packet arrived (they were already at the output).
		for f.held > 0 {
			h := &f.win[f.next&uint64(len(f.win)-1)]
			if !h.ok {
				break
			}
			h.ok = false
			f.held--
			r.held--
			h.d.Depart = d.Depart
			r.out.Observe(h.d)
			f.next++
		}
	case seq > f.next:
		if seq-f.next >= uint64(len(f.win)) {
			f.grow(seq - f.next)
		}
		h := &f.win[seq&uint64(len(f.win)-1)]
		if h.ok {
			panic("reference resequencer saw a duplicate sequence number")
		}
		h.d, h.ok = d, true
		f.held++
		r.held++
		if r.held > r.maxHold {
			r.maxHold = r.held
		}
	default:
		// Duplicate or already released: drop. Cannot happen with the
		// switches in this repository.
		panic("reference resequencer saw a duplicate sequence number")
	}
}

// grow reallocates the window to a power of two above ahead, the distance
// of the packet about to be held from f.next, and re-files what it holds.
func (f *refFlow) grow(ahead uint64) {
	size := uint64(8)
	for size <= ahead {
		size *= 2
	}
	win := make([]refSlot, size)
	for _, h := range f.win {
		if h.ok {
			win[h.d.Packet.Seq&(size-1)] = h
		}
	}
	f.win = win
}

// Held returns the number of packets currently buffered.
func (r *refResequencer) Held() int { return r.held }

// MaxHeld returns the high-water mark of the buffer, the empirical analogue
// of FOFF's O(N^2) reordering-buffer bound.
func (r *refResequencer) MaxHeld() int { return r.maxHold }

// refPacer enforces the output line rate on deliveries that come out of a
// resequencing buffer. When a blocking packet arrives, a resequencer can
// release a burst of successors at once, but a physical output port still
// transmits one packet per slot — so the burst must drain over consecutive
// slots, and that extra wait is part of the packets' real delay. refPacer
// buffers releases per output and emits at most one per output per slot,
// restamping each departure with its true slot.
type refPacer struct {
	q    []queue.FIFO[sim.Delivery]
	held int
}

// newRefPacer builds a pacer for an n-output switch.
func newRefPacer(n int) *refPacer {
	return &refPacer{q: make([]queue.FIFO[sim.Delivery], n)}
}

// Observe implements sim.Observer: it accepts a (possibly bursty) release
// stream.
func (p *refPacer) Observe(d sim.Delivery) {
	p.q[d.Packet.Out].Push(d)
	p.held++
}

// Drain emits at most one delivery per output for slot t.
func (p *refPacer) Drain(t sim.Slot, deliver sim.DeliverFunc) {
	for out := range p.q {
		q := &p.q[out]
		if q.Empty() {
			continue
		}
		d := q.Pop()
		p.held--
		d.Depart = t
		if deliver != nil {
			deliver(d)
		}
	}
}

// Held returns the number of deliveries waiting for an output slot.
func (p *refPacer) Held() int { return p.held }

// TestResequencerRestoresOrder: feed a flow's packets in an arbitrary
// permutation; the output must see them in sequence order, with release
// times never before delivery times.
func TestResequencerRestoresOrder(t *testing.T) {
	f := func(permSeed int64, kRaw uint8) bool {
		k := int(kRaw)%40 + 1
		perm := rand.New(rand.NewSource(permSeed)).Perm(k)
		var got []uint64
		var lastDepart sim.Slot
		rs := newRefResequencer(2, sim.ObserverFunc(func(d sim.Delivery) {
			got = append(got, d.Packet.Seq)
			if d.Depart < lastDepart {
				return // release times must be monotone; flag via length check below
			}
			lastDepart = d.Depart
		}))
		for i, seq := range perm {
			rs.Observe(sim.Delivery{
				Packet: sim.Packet{In: 0, Out: 0, Seq: uint64(seq)},
				Depart: sim.Slot(i),
			})
		}
		if len(got) != k || rs.Held() != 0 {
			return false
		}
		for i, seq := range got {
			if seq != uint64(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestResequencerChargesWaitToDelay(t *testing.T) {
	var releases []sim.Delivery
	rs := newRefResequencer(2, sim.ObserverFunc(func(d sim.Delivery) {
		releases = append(releases, d)
	}))
	// Seq 1 arrives at slot 10, seq 0 at slot 50: seq 1 must be released
	// at slot 50.
	rs.Observe(sim.Delivery{Packet: sim.Packet{Seq: 1}, Depart: 10})
	rs.Observe(sim.Delivery{Packet: sim.Packet{Seq: 0}, Depart: 50})
	if len(releases) != 2 {
		t.Fatalf("%d releases", len(releases))
	}
	if releases[0].Packet.Seq != 0 || releases[1].Packet.Seq != 1 {
		t.Fatal("release order wrong")
	}
	if releases[1].Depart != 50 {
		t.Fatalf("held packet released at %d, want 50", releases[1].Depart)
	}
	if rs.MaxHeld() != 1 {
		t.Fatalf("MaxHeld = %d", rs.MaxHeld())
	}
}

func TestResequencerIndependentFlows(t *testing.T) {
	var count int
	rs := newRefResequencer(2, sim.ObserverFunc(func(sim.Delivery) { count++ }))
	// Flow (0,0) is blocked on seq 0, but flow (1,1) flows through.
	rs.Observe(sim.Delivery{Packet: sim.Packet{In: 0, Out: 0, Seq: 1}, Depart: 1})
	rs.Observe(sim.Delivery{Packet: sim.Packet{In: 1, Out: 1, Seq: 0}, Depart: 2})
	if count != 1 {
		t.Fatalf("%d releases, want 1", count)
	}
}

func TestResequencerDuplicatePanics(t *testing.T) {
	rs := newRefResequencer(2, sim.ObserverFunc(func(sim.Delivery) {}))
	rs.Observe(sim.Delivery{Packet: sim.Packet{Seq: 0}})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	rs.Observe(sim.Delivery{Packet: sim.Packet{Seq: 0}})
}

// TestResequencerFlowsAndReuse interleaves every flow of a 3-port switch,
// each delivering blocks of 12 packets in its own scrambled order: flows
// (i, j) and (j, i) must not share state, every flow must come out in
// sequence, and once each flow's window has grown to its displacement,
// further blocks allocate nothing.
func TestResequencerFlowsAndReuse(t *testing.T) {
	const n, block = 3, 12
	var next [n][n]uint64
	rs := newRefResequencer(n, sim.ObserverFunc(func(d sim.Delivery) {
		in, out := d.Packet.In, d.Packet.Out
		if d.Packet.Seq != next[in][out] {
			t.Fatalf("flow (%d,%d) released seq %d, want %d", in, out, d.Packet.Seq, next[in][out])
		}
		next[in][out]++
	}))
	rng := rand.New(rand.NewSource(5))
	var perm [n][n][]int
	for i := range perm {
		for j := range perm[i] {
			perm[i][j] = rng.Perm(block)
		}
	}
	var base uint64
	var now sim.Slot
	feedBlock := func() {
		for k := 0; k < block; k++ {
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					rs.Observe(sim.Delivery{
						Packet: sim.Packet{In: int32(i), Out: int32(j), Seq: base + uint64(perm[i][j][k])},
						Depart: now,
					})
				}
			}
			now++
		}
		base += block
	}
	feedBlock()
	if rs.Held() != 0 || rs.MaxHeld() == 0 || next[0][1] != block || next[1][0] != block {
		t.Fatalf("after one block: held %d, max held %d, released %v", rs.Held(), rs.MaxHeld(), next)
	}
	if allocs := testing.AllocsPerRun(10, feedBlock); allocs != 0 {
		t.Fatalf("warmed-up resequencer allocated %v times per block", allocs)
	}
}

func TestPacerSpreadsBursts(t *testing.T) {
	p := newRefPacer(4)
	// Three packets for output 2 released in one burst at slot 10.
	for seq := uint64(0); seq < 3; seq++ {
		p.Observe(sim.Delivery{Packet: sim.Packet{Out: 2, Seq: seq}, Depart: 10})
	}
	if p.Held() != 3 {
		t.Fatalf("Held = %d", p.Held())
	}
	var got []sim.Delivery
	for tt := sim.Slot(10); tt < 16; tt++ {
		p.Drain(tt, func(d sim.Delivery) { got = append(got, d) })
	}
	if len(got) != 3 {
		t.Fatalf("drained %d", len(got))
	}
	for i, d := range got {
		if d.Depart != sim.Slot(10+i) {
			t.Fatalf("release %d at slot %d, want %d", i, d.Depart, 10+i)
		}
		if d.Packet.Seq != uint64(i) {
			t.Fatalf("release order broken: seq %d at position %d", d.Packet.Seq, i)
		}
	}
	if p.Held() != 0 {
		t.Fatalf("Held = %d after drain", p.Held())
	}
}

func TestPacerIndependentOutputs(t *testing.T) {
	p := newRefPacer(4)
	p.Observe(sim.Delivery{Packet: sim.Packet{Out: 0}})
	p.Observe(sim.Delivery{Packet: sim.Packet{Out: 3}})
	count := 0
	p.Drain(5, func(d sim.Delivery) {
		count++
		if d.Depart != 5 {
			t.Fatalf("depart %d", d.Depart)
		}
	})
	if count != 2 {
		t.Fatalf("outputs should drain in parallel; got %d", count)
	}
}

func TestPacerNilDeliver(t *testing.T) {
	p := newRefPacer(2)
	p.Observe(sim.Delivery{Packet: sim.Packet{Out: 1}})
	p.Drain(0, nil) // must not panic; packet still consumed
	if p.Held() != 0 {
		t.Fatal("nil deliver should still consume")
	}
}
