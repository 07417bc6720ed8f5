// Package foff implements Full Ordered Frames First (Keslassy, Sec. 2.2 of
// the paper).
//
// Every VOQ stripes its packets deterministically: the k-th packet of the
// VOQ (counting from 0) always traverses intermediate port k mod N, so each
// flow deposits exactly one packet per port per frame — "continuing where
// it left off" across service interruptions. An input therefore serves a
// VOQ only in slots whose first-fabric connection matches the VOQ's next
// port. Among the VOQs eligible in a slot, full ordered frames are served
// first: a VOQ that begins a frame with all N packets present keeps
// priority until the frame completes; leftover slots serve incomplete
// frames round-robin.
//
// Because incomplete frames from different inputs interleave with different
// phases, packets can still reach an output a bounded number of positions
// out of order — the O(N^2) bound of the paper. The switch therefore embeds
// per-output resequencing buffers; deliveries seen by the caller are always
// in per-flow order with the resequencing wait charged to packet delay. No
// buffer holds a whole packet: a VOQ keeps 8-byte arrival slots, the center
// stage 24-byte records of Seq, Arrival and In (midstage.Stage), a flow's
// resequencing window 8-byte arrival slots, and an output's pacing FIFO
// 24-byte records; each rebuilds the packet from where it sits.
package foff

import (
	"sprinklers/internal/midstage"
	"sprinklers/internal/queue"
	"sprinklers/internal/sim"
)

// Switch is a Full Ordered Frames First switch.
//
// The input scheduler never walks the VOQs. Every VOQ eligible at input i in
// slot t has next port l = FirstStage(i, t), so all of them are at a frame
// boundary exactly when l == 0, and the paper's three service classes reduce
// to one preferred set per slot: "can start a full frame" when l == 0,
// "inside a full frame" otherwise. Each input therefore keeps three bit sets
// over its VOQs, updated on Arrive and on service,
//
//   - nonEmpty: bit j set ⇔ VOQ (i, j) holds a packet,
//   - ready:    bit j set ⇔ VOQ (i, j) holds at least N packets,
//   - inFull:   bit j set ⇔ VOQ (i, j) began its current frame with all N
//     packets present and has not finished it (never set at a boundary),
//
// plus nextAt, one bit set per (input, port): bit j of nextAt[i][l] is set
// ⇔ VOQ (i, j)'s next packet must traverse intermediate port l. A served
// VOQ moves from set l to set l+1, so every VOQ is in exactly one of an
// input's N sets. The slot's choice is the first bit at or cyclically after
// the round-robin pointer in nextAt[i][l] & nonEmpty & preferred, falling
// back to nextAt[i][l] & nonEmpty: a few words per input per slot instead
// of N queue inspections.
//
// The three per-input sets cost 3N²/8 bytes together; nextAt costs N³/8
// bytes — 4 KB at N = 32, 256 KB at N = 128, 16 MB at N = 512, 134 MB at
// N = 1024, where it is the largest thing in the switch (the 32-byte
// per-flow window headers are 34 MB and the 32-byte VOQ queue headers 34 MB;
// an empty switch allocates 0.09, 1.5, 36 and 210 MB at those four sizes).
// A VOQ holds no buffer of its own: its packets are 8-byte arrival records
// in 8-record chunks from its input's pool, their Seqs implied by the queue
// position, so what the inputs hold follows their backlog, not N² private
// high-water marks, and an empty switch holds none. nextAt is the price
// of a selection that is one AND and one find-first-set per word. An O(N²)
// list of VOQs per (input, port) would scale further but makes the pick a
// list walk again, and no study or benchmark here runs FOFF past N = 512.
type Switch struct {
	n      int
	w      int // words per bit set: queue.BitWords(n)
	t      sim.Slot
	voq    []queue.RecordFIFO // VOQ i*n+j, on chunks[i]
	chunks []queue.RecordPool // one pool per input

	nonEmpty []uint64 // input i's set at [i*w, (i+1)*w)
	ready    []uint64
	inFull   []uint64
	nextAt   []uint64 // set (i, l) at [(i*n+l)*w, (i*n+l+1)*w)
	elig     []uint64 // scratch: this slot's eligible VOQs
	pref     []uint64 // scratch: the preferred ones among them

	rr    []int // per-input round-robin tie-break pointer
	mid   *midstage.Stage
	inBuf int

	// The output side (see Step): a resequencing window per flow and a
	// pacing FIFO per output, of releases waiting for the output's line.
	flows   []reseqFlow                    // flow i*n+j
	paced   []queue.FIFO[queue.PortRecord] // output j's, Port = In
	held    int                            // packets in the windows
	maxHeld int                            // high-water mark of held: the O(N²) bound, measured
	pacing  int                            // packets in the pacing FIFOs
}

// reseqFlow is one flow's resequencing window. A held packet with Seq s
// waits as its arrival slot at win[s & (len(win)-1)], -1 marking a free
// slot; every held s lies in (next, next+len(win)), so distinct held packets
// never share a slot and a slot's index gives its s back. A flow that never
// ran ahead of itself has no window; one that did keeps a window as large as
// its largest displacement, so a warmed-up switch allocates nothing here.
type reseqFlow struct {
	next uint64 // Seq to release next
	win  []sim.Slot
}

// New builds an n-port FOFF switch.
func New(n int) *Switch {
	w := queue.BitWords(n)
	s := &Switch{
		n:        n,
		w:        w,
		voq:      make([]queue.RecordFIFO, n*n),
		chunks:   make([]queue.RecordPool, n),
		nonEmpty: make([]uint64, n*w),
		ready:    make([]uint64, n*w),
		inFull:   make([]uint64, n*w),
		nextAt:   make([]uint64, n*n*w),
		elig:     make([]uint64, w),
		pref:     make([]uint64, w),
		rr:       make([]int, n),
		mid:      midstage.New(n),
		flows:    make([]reseqFlow, n*n),
		paced:    make([]queue.FIFO[queue.PortRecord], n),
	}
	// No VOQ has sent anything: every next port is 0.
	for i := 0; i < n; i++ {
		at := s.nextAt[i*n*w:][:w]
		for j := 0; j < n; j++ {
			queue.SetBit(at, j)
		}
	}
	return s
}

// N implements sim.Switch.
func (s *Switch) N() int { return s.n }

// Now implements sim.Switch.
func (s *Switch) Now() sim.Slot { return s.t }

// Backlog implements sim.Switch: input VOQs, center stage, the output
// resequencing windows, and releases waiting for an output line slot.
func (s *Switch) Backlog() int {
	return s.inBuf + s.mid.Backlog() + s.held + s.pacing
}

// Arrive implements sim.Switch.
func (s *Switch) Arrive(p sim.Packet) {
	i, j := int(p.In), int(p.Out)
	q := &s.voq[i*s.n+j]
	q.Push(&s.chunks[i], p)
	if q.Len() == 1 {
		queue.SetBit(s.nonEmpty[i*s.w:], j)
	}
	if q.Len() == s.n {
		queue.SetBit(s.ready[i*s.w:], j)
	}
	s.inBuf++
}

// Step implements sim.Switch. Output j takes the head of its queue at
// intermediate port IntermediateFor(j, t), puts it through the flow's
// resequencing window, and sends at most one packet, the oldest release it
// has not sent, so the delivered stream respects both flow order and the
// output line rate. An output takes at most one center-stage packet a slot
// and its windows and FIFO are its own, so serving the outputs in turn
// delivers what one stage-wide pass, then one pass over the outputs, would.
func (s *Switch) Step(deliver sim.DeliverFunc) {
	t := s.t
	l := sim.IntermediateFor(0, t, s.n) // output j reads port l = (j + t) mod n
	for j := 0; j < s.n; j++ {
		s.output(j, l, t, deliver)
		if l++; l == s.n {
			l = 0
		}
	}
	for i := 0; i < s.n; i++ {
		l := sim.FirstStage(i, t, s.n)
		if j := s.pick(i, l); j >= 0 {
			s.serve(i, j, l)
		}
	}
	s.t++
}

// output runs output j's side of slot t, reading intermediate port l. A
// packet that comes in order is released with every held successor of its
// flow; the first release goes straight out when nothing released earlier
// is still waiting for the line, and the rest queue for later slots.
func (s *Switch) output(j, l int, t sim.Slot, deliver sim.DeliverFunc) {
	fifo := &s.paced[j]
	sent := false
	if p, ok := s.mid.Take(l, j); ok {
		f := &s.flows[int(p.In)*s.n+j]
		switch {
		case p.Seq > f.next:
			s.hold(f, p)
		case p.Seq < f.next:
			panic("foff: a flow delivered one Seq twice")
		default:
			if fifo.Empty() {
				sent = true
				if deliver != nil {
					deliver(sim.Delivery{Packet: p, Depart: t})
				}
			} else {
				fifo.Push(queue.PortRecord{Seq: p.Seq, Arrival: p.Arrival, Port: p.In})
				s.pacing++
			}
			f.next++
			for len(f.win) > 0 {
				h := &f.win[f.next&uint64(len(f.win)-1)]
				if *h < 0 {
					break
				}
				fifo.Push(queue.PortRecord{Seq: f.next, Arrival: *h, Port: p.In})
				*h = -1
				f.next++
				s.held--
				s.pacing++
			}
		}
	}
	if !sent && !fifo.Empty() {
		r := fifo.Pop()
		s.pacing--
		if deliver != nil {
			deliver(sim.Delivery{Packet: sim.Packet{Seq: r.Seq, Arrival: r.Arrival, In: r.Port, Out: int32(j)}, Depart: t})
		}
	}
}

// hold files p, which came ahead of its flow's next Seq, in the flow's
// window, growing the window to a power of two above p's displacement.
func (s *Switch) hold(f *reseqFlow, p sim.Packet) {
	if ahead := p.Seq - f.next; ahead >= uint64(len(f.win)) {
		size := uint64(8)
		for size <= ahead {
			size *= 2
		}
		win := make([]sim.Slot, size)
		for k := range win {
			win[k] = -1
		}
		old := uint64(len(f.win))
		for k, a := range f.win {
			if a >= 0 {
				seq := f.next + ((uint64(k) - f.next) & (old - 1))
				win[seq&(size-1)] = a
			}
		}
		f.win = win
	}
	h := &f.win[p.Seq&uint64(len(f.win)-1)]
	if *h >= 0 {
		panic("foff: a flow delivered one Seq twice")
	}
	*h = p.Arrival
	s.held++
	s.maxHeld = max(s.maxHeld, s.held)
}

// pick chooses the VOQ input i serves while connected to intermediate port
// l, or -1: among the non-empty VOQs whose next port is l, full ordered
// frames win, with round-robin tie-breaking inside each class.
func (s *Switch) pick(i, l int) int {
	at := s.nextAt[(i*s.n+l)*s.w:][:s.w]
	nonEmpty := s.nonEmpty[i*s.w:][:s.w]
	preferred := s.inFull[i*s.w:][:s.w]
	if l == 0 {
		// Frame boundary: a VOQ with a whole frame waiting starts it now.
		preferred = s.ready[i*s.w:][:s.w]
	}
	for k := range at {
		s.elig[k] = at[k] & nonEmpty[k]
		s.pref[k] = s.elig[k] & preferred[k]
	}
	if j := queue.NextSet(s.pref, s.rr[i]); j >= 0 {
		return j
	}
	return queue.NextSet(s.elig, s.rr[i])
}

// serve sends the head of VOQ (i, j) to intermediate port l, the VOQ's
// next port, and moves the VOQ on to port l+1. It is the only place a VOQ
// shrinks, so the head record becomes a packet again here.
func (s *Switch) serve(i, j, l int) {
	q := &s.voq[i*s.n+j]
	inFull := s.inFull[i*s.w:]
	if l == 0 && q.Len() >= s.n {
		queue.SetBit(inFull, j) // this frame starts full
	}
	r, seq := q.Pop(&s.chunks[i])
	p := r.Packet(seq, i, j)
	if q.Len() == s.n-1 {
		queue.ClearBit(s.ready[i*s.w:], j)
	}
	if q.Len() == 0 {
		queue.ClearBit(s.nonEmpty[i*s.w:], j)
	}
	next := l + 1
	if next == s.n {
		next = 0
		queue.ClearBit(inFull, j) // frame completed
	}
	queue.ClearBit(s.nextAt[(i*s.n+l)*s.w:], j)
	queue.SetBit(s.nextAt[(i*s.n+next)*s.w:], j)
	s.inBuf--
	s.rr[i] = j + 1
	if s.rr[i] == s.n {
		s.rr[i] = 0
	}
	s.mid.Enqueue(l, p)
}
