package midstage

import (
	"sprinklers/internal/queue"
	"sprinklers/internal/sim"
)

// Spreader is the input side the full-frame switches share, in front of
// its own FrameStage: per-input VOQs, and per input one frame at a time
// being spread over N consecutive slots, one cell to each intermediate
// port. A VOQ is a queue.RecordFIFO on its input's chunk pool, so an input's
// memory follows its backlog rather than N private high-water marks, and a
// packet is a 24-byte record until fillFrame rebuilds it from the VOQ's
// (i, j). An idle input picks, round-robin over its VOQs, one that holds a
// full frame of N packets. What an input does when no VOQ holds one is the
// only thing UFS and Padded Frames disagree on, so Step takes it as a
// policy: UFS idles, PF names a VOQ to pad with fake cells.
//
// The round-robin pick does not walk the VOQs: each input keeps a bit set
// over them in which bit j is set ⇔ VOQ (i, j) holds at least N packets,
// maintained where a VOQ grows (Arrive) and where it is drained (the start
// of a frame), so the pick is the first set bit at or cyclically after the
// pointer. The sets cost N²/8 bytes in all.
type Spreader struct {
	n        int
	w        int                // words per input in ready
	voq      []queue.RecordFIFO // VOQ i*n+j, on inputs[i].chunks
	ready    []uint64           // input i's full-frame-ready set at [i*w, (i+1)*w)
	inputs   []spreadInput
	frameSeq []uint64 // per-VOQ frame counter (orders frames of a flow)
	nextID   uint64   // global frame identity
	mid      *FrameStage
	inBuf    int   // real packets at the input side
	padded   int64 // fake cells injected
}

type spreadInput struct {
	// frame is the input's one reusable N-packet buffer; cells [pos, n)
	// are still to be sent, so pos == n means the input is idle.
	frame   []sim.Packet
	pos     int
	frameID uint64
	flowSeq uint64
	rr      int              // round-robin pointer over VOQs for frame selection
	chunks  queue.RecordPool // backs the input's n VOQs
}

// NewSpreader builds the full-frame input side and center stage of an
// n-port switch.
func NewSpreader(n int) *Spreader {
	w := queue.BitWords(n)
	sp := &Spreader{
		n:        n,
		w:        w,
		voq:      make([]queue.RecordFIFO, n*n),
		ready:    make([]uint64, n*w),
		inputs:   make([]spreadInput, n),
		frameSeq: make([]uint64, n*n),
		mid:      NewFrameStage(n),
	}
	frames := make([]sim.Packet, n*n)
	for i := range sp.inputs {
		sp.inputs[i].frame = frames[i*n : (i+1)*n : (i+1)*n]
		sp.inputs[i].pos = n
	}
	return sp
}

// Arrive buffers p in its VOQ.
func (sp *Spreader) Arrive(p sim.Packet) {
	i, j := int(p.In), int(p.Out)
	q := &sp.voq[i*sp.n+j]
	q.Push(&sp.inputs[i].chunks, queue.RecordOf(p))
	if q.Len() == sp.n {
		queue.SetBit(sp.ready[i*sp.w:], j)
	}
	sp.inBuf++
}

// Backlog returns the number of real packets buffered at the inputs and
// in the center stage.
func (sp *Spreader) Backlog() int { return sp.inBuf + sp.mid.Backlog() }

// VOQLen returns the number of packets waiting in VOQ (i, j), not counting
// a frame already being spread.
func (sp *Spreader) VOQLen(i, j int) int { return sp.voq[i*sp.n+j].Len() }

// PaddingInjected returns the number of fake cells spread so far.
func (sp *Spreader) PaddingInjected() int64 { return sp.padded }

// Step executes slot t: the second fabric drains the center stage, then
// every input sends the next cell of its frame over the first fabric. When
// an idle input has no full frame, pad (nil for never) is asked which of
// its VOQs to pad to a full frame; a negative answer leaves the input idle.
func (sp *Spreader) Step(t sim.Slot, deliver sim.DeliverFunc, pad func(i int) int) {
	sp.mid.Step(t, deliver)
	for i := range sp.inputs {
		in := &sp.inputs[i]
		if in.pos == sp.n && !sp.startFull(i) {
			if pad == nil {
				continue
			}
			j := pad(i)
			if j < 0 {
				continue
			}
			sp.startPadded(i, j, t)
		}
		c := Cell{
			Pkt:     in.frame[in.pos],
			FrameID: in.frameID,
			FlowSeq: in.flowSeq,
			Index:   int32(in.pos),
		}
		in.pos++
		if !c.Pkt.Fake {
			sp.inBuf--
		}
		sp.mid.Enqueue(sim.FirstStage(i, t, sp.n), c)
	}
}

// startFull picks, round-robin from input i's pointer, a VOQ holding a full
// frame and, if there is one, moves the frame into the input's buffer for
// spreading.
func (sp *Spreader) startFull(i int) bool {
	j := queue.NextSet(sp.ready[i*sp.w:][:sp.w], sp.inputs[i].rr)
	if j < 0 {
		return false
	}
	sp.fillFrame(i, j)
	sp.startFrame(i, j)
	return true
}

// startPadded moves all of VOQ (i, j) into input i's buffer and fills the
// rest of the frame with fake cells.
func (sp *Spreader) startPadded(i, j int, t sim.Slot) {
	in := &sp.inputs[i]
	k := sp.fillFrame(i, j)
	for u := k; u < sp.n; u++ {
		in.frame[u] = sim.Packet{In: int32(i), Out: int32(j), Fake: true, Arrival: t}
	}
	sp.padded += int64(sp.n - k)
	sp.startFrame(i, j)
}

// fillFrame moves up to a frame of packets from VOQ (i, j) into input i's
// buffer and returns how many it moved. It is the only place a VOQ shrinks,
// and so the only place its records become packets again.
func (sp *Spreader) fillFrame(i, j int) int {
	q, in := &sp.voq[i*sp.n+j], &sp.inputs[i]
	k := min(q.Len(), sp.n)
	for u := range in.frame[:k] {
		in.frame[u] = q.Pop(&in.chunks).Packet(i, j)
	}
	if q.Len() < sp.n {
		queue.ClearBit(sp.ready[i*sp.w:], j)
	}
	return k
}

// startFrame begins spreading the frame in input i's buffer and assigns its
// frame identity and per-flow sequence number.
func (sp *Spreader) startFrame(i, j int) {
	in := &sp.inputs[i]
	in.pos = 0
	in.frameID = sp.nextID
	sp.nextID++
	in.flowSeq = sp.frameSeq[i*sp.n+j]
	sp.frameSeq[i*sp.n+j]++
	in.rr = (j + 1) % sp.n
}
