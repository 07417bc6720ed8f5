package midstage

import (
	"fmt"

	"sprinklers/internal/queue"
	"sprinklers/internal/sim"
)

// Cell is one packet of a full frame, annotated with the frame bookkeeping
// the frame-atomic stage needs. Every frame holds exactly N cells (padded
// ones included), so a cell does not carry its frame's size; Index is 32 bits
// to keep a bank node at 72 bytes.
type Cell struct {
	Pkt     sim.Packet
	FrameID uint64 // globally unique frame identity
	FlowSeq uint64 // per-(input, output-VOQ) frame counter
	Index   int32  // position of this packet inside its frame (0..N-1)
}

// FrameStage is the frame-atomic center stage used by the full-frame
// switches (UFS and Padded Frames).
//
// A full frame's N packets are inserted at the N intermediate ports over N
// consecutive slots, so the per-output queue depths seen by one frame's
// packets can differ by one around the wrap point of competing insertion
// waves. Plain FIFO service at the second fabric then lets a one-round
// depth difference swap the departure order of adjacent packets of a frame.
// FrameStage removes that hazard the same way the Sprinklers virtual grid
// of Sec. 3.4.3 does for stripes: an output serves frames atomically. A
// frame may begin departing only when the output's cyclic sweep reaches the
// intermediate port holding the frame's first packet, and it then drains
// from consecutive ports in consecutive slots, so the frame arrives at the
// output "in one burst" and per-flow order is preserved.
//
// Frames of the same flow are additionally gated by a per-flow frame
// sequence number so that a later frame can never start before an earlier
// one, even when the two frames were spread starting at different ports.
type FrameStage struct {
	n     int
	q     *queue.Bank[Cell] // queue m*n+j: cells at port m for output j
	grids []gridState       // per-output frame service state
	next  []uint64          // next FlowSeq allowed to start, per flow in*n+out
	real  int
}

type gridState struct {
	serving bool
	frameID uint64
	row     int // intermediate port the next packet will be taken from
	left    int // packets remaining in the frame
}

// NewFrameStage builds the frame-atomic stage for an n-port switch.
func NewFrameStage(n int) *FrameStage {
	return &FrameStage{
		n:     n,
		q:     queue.NewBank[Cell](n * n),
		grids: make([]gridState, n),
		next:  make([]uint64, n*n),
	}
}

// Enqueue buffers c, which arrived at intermediate port m over the first
// fabric.
func (s *FrameStage) Enqueue(m int, c Cell) {
	s.q.Push(m*s.n+int(c.Pkt.Out), c)
	if !c.Pkt.Fake {
		s.real++
	}
}

// Backlog returns the number of real packets buffered.
func (s *FrameStage) Backlog() int { return s.real }

// Step executes one second-fabric slot for every output.
func (s *FrameStage) Step(t sim.Slot, deliver sim.DeliverFunc) {
	for j := 0; j < s.n; j++ {
		s.stepOutput(j, t, deliver)
	}
}

func (s *FrameStage) stepOutput(j int, t sim.Slot, deliver sim.DeliverFunc) {
	g := &s.grids[j]
	m := sim.IntermediateFor(j, t, s.n)
	q := m*s.n + j
	if g.serving {
		if g.row != m {
			panic(fmt.Sprintf("midstage: output %d lost lockstep: want row %d, sweep at %d", j, g.row, m))
		}
		// The in-service frame's packet may sit behind packets of
		// not-yet-started frames; extract it wherever it is.
		c, ok := s.q.RemoveFirst(q, func(c *Cell) bool { return c.FrameID == g.frameID })
		if !ok {
			panic(fmt.Sprintf("midstage: output %d missing packet of frame %d at port %d", j, g.frameID, m))
		}
		g.left--
		g.row = (g.row + 1) % s.n
		if g.left == 0 {
			g.serving = false
		}
		s.emit(c, t, deliver)
		return
	}
	// Not serving: start the first frame (in arrival order at this port)
	// whose first packet is here and whose flow allows it to start.
	c, ok := s.q.RemoveFirst(q, func(c *Cell) bool {
		return c.Index == 0 && s.next[s.flow(c)] == c.FlowSeq
	})
	if !ok {
		return
	}
	s.next[s.flow(&c)] = c.FlowSeq + 1
	if s.n > 1 {
		g.serving = true
		g.frameID = c.FrameID
		g.row = (m + 1) % s.n
		g.left = s.n - 1
	}
	s.emit(c, t, deliver)
}

// flow indexes the per-flow state of c's (input, output) pair.
func (s *FrameStage) flow(c *Cell) int { return int(c.Pkt.In)*s.n + int(c.Pkt.Out) }

func (s *FrameStage) emit(c Cell, t sim.Slot, deliver sim.DeliverFunc) {
	if c.Pkt.Fake {
		return
	}
	s.real--
	if deliver != nil {
		deliver(sim.Delivery{Packet: c.Pkt, Depart: t})
	}
}

// QueueLen reports the queue length (including fakes) at intermediate port m
// for output j. It walks the queue; it exists for invariant tests.
func (s *FrameStage) QueueLen(m, j int) int { return s.q.QueueLen(m*s.n + j) }
