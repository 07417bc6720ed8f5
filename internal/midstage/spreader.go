package midstage

import (
	"sprinklers/internal/queue"
	"sprinklers/internal/sim"
)

// Spreader is the switch core UFS and Padded Frames share: per-input VOQs,
// per input one frame at a time being spread over N consecutive slots, one
// cell to each intermediate port, and the frame-atomic center stage behind
// them (framestage.go). A VOQ is a queue.RecordFIFO on its input's chunk
// pool, so an input's memory follows its backlog rather than N private
// high-water marks, and a packet is an 8-byte record until the output it
// departs from rebuilds it from the VOQ's (i, j) and its queue position. An
// idle input picks, round-robin over its VOQs, one that holds a full frame
// of N packets. What an input does when no VOQ holds one is the only thing
// UFS and Padded Frames disagree on, so Step takes it as a policy: UFS
// idles, PF names a VOQ to pad with fake cells.
//
// The round-robin pick does not walk the VOQs: each input keeps a bit set
// over them in which bit j is set ⇔ VOQ (i, j) has at least N packets
// waiting, maintained where a VOQ grows (Arrive) and where it is framed (the
// start of a frame), so the pick is the first set bit at or cyclically after
// the pointer. The sets cost N²/8 bytes in all.
type Spreader struct {
	n        int
	w        int       // words per input in ready
	flows    []flowVOQ // VOQ i*n+j, on inputs[i].chunks
	ready    []uint64  // input i's full-frame-ready set at [i*w, (i+1)*w)
	inputs   []spreadInput
	heads    *queue.Bank[frame] // queue m*n+j: frames for output j whose first cell is at port m
	outs     []outputState
	buffered int   // real packets in the switch
	padded   int64 // fake cells injected
}

// flowVOQ is one (input, output) flow: its VOQ and its frame counters.
//
// A frame's packets stay in the VOQ until they depart. The frames of a flow
// leave their output in the order the input started them (the center stage
// gates on seq), one at a time, so the packets an output takes from a VOQ
// are always its head: the started frames' packets in frame order, then the
// waiting ones. The frame counters may wrap: the gate compares them for
// equality, which stays exact while fewer than 2^32 frames of one flow are
// in the switch.
type flowVOQ struct {
	q       queue.RecordFIFO
	waiting int32  // packets not yet in a started frame
	started uint32 // frames started at the input; the next one's seq
	begun   uint32 // frames begun at the output; the seq allowed to begin next
}

type spreadInput struct {
	// idleAt is the first slot the input is free to start a frame: a frame
	// started in slot t sends its N cells in slots t … t+N−1.
	idleAt sim.Slot
	rr     int              // round-robin pointer over VOQs for frame selection
	chunks queue.RecordPool // backs the input's n VOQs
}

// NewSpreader builds the full-frame input side and center stage of an
// n-port switch.
func NewSpreader(n int) *Spreader {
	w := queue.BitWords(n)
	return &Spreader{
		n:      n,
		w:      w,
		flows:  make([]flowVOQ, n*n),
		ready:  make([]uint64, n*w),
		inputs: make([]spreadInput, n),
		heads:  queue.NewBank[frame](n * n),
		outs:   make([]outputState, n),
	}
}

// Arrive buffers p in its VOQ.
func (sp *Spreader) Arrive(p sim.Packet) {
	i, j := int(p.In), int(p.Out)
	f := &sp.flows[i*sp.n+j]
	f.q.Push(&sp.inputs[i].chunks, p)
	f.waiting++
	if int(f.waiting) == sp.n {
		queue.SetBit(sp.ready[i*sp.w:], j)
	}
	sp.buffered++
}

// Backlog returns the number of real packets buffered at the inputs and
// in the center stage.
func (sp *Spreader) Backlog() int { return sp.buffered }

// VOQLen returns the number of packets waiting in VOQ (i, j), not counting
// those of frames already started.
func (sp *Spreader) VOQLen(i, j int) int { return int(sp.flows[i*sp.n+j].waiting) }

// PaddingInjected returns the number of fake cells spread so far.
func (sp *Spreader) PaddingInjected() int64 { return sp.padded }

// Step executes slot t: the second fabric drains the center stage, then
// every idle input starts spreading its next frame. When an idle input has
// no full frame, pad (nil for never) is asked which of its VOQs to pad to a
// full frame; a negative answer leaves the input idle.
func (sp *Spreader) Step(t sim.Slot, deliver sim.DeliverFunc, pad func(i int) int) {
	sp.depart(t, deliver)
	for i := range sp.inputs {
		in := &sp.inputs[i]
		if t < in.idleAt {
			continue
		}
		j := queue.NextSet(sp.ready[i*sp.w:][:sp.w], in.rr)
		if j < 0 {
			if pad == nil {
				continue
			}
			if j = pad(i); j < 0 {
				continue
			}
		}
		sp.start(i, j, t)
	}
}

// start begins spreading a frame of VOQ (i, j) in slot t: up to N of its
// waiting packets, padded with fake cells to N. The frame's first cell
// reaches intermediate port FirstStage(i, t) in this slot, and that is
// where the center stage queues the frame.
func (sp *Spreader) start(i, j int, t sim.Slot) {
	f, in := &sp.flows[i*sp.n+j], &sp.inputs[i]
	k := min(int(f.waiting), sp.n)
	f.waiting -= int32(k)
	if int(f.waiting) < sp.n {
		queue.ClearBit(sp.ready[i*sp.w:], j)
	}
	sp.padded += int64(sp.n - k)
	sp.heads.Push(sim.FirstStage(i, t, sp.n)*sp.n+j, frame{seq: f.started, in: int32(i), real: int32(k)})
	f.started++
	in.rr = (j + 1) % sp.n
	in.idleAt = t + sim.Slot(sp.n)
}
