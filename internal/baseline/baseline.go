// Package baseline implements the baseline load-balanced Birkhoff–von
// Neumann switch of Chang et al. (Sec. 2 / [2] in the paper): each input
// keeps a single FIFO and forwards its head-of-line packet to whichever
// intermediate port the first fabric currently connects it to; each
// intermediate port keeps one VOQ per output and forwards when the second
// fabric connects it to that output.
//
// The baseline achieves 100% throughput for admissible traffic and provides
// the delay lower bound among load-balanced switches, but it does not
// preserve packet order — consecutive packets of one flow take different
// paths with different queueing delays. The test suite demonstrates the
// reordering; the Sprinklers switch in internal/core eliminates it.
//
// Neither stage buffers a whole packet: an input queue mixes outputs, so it
// holds 24-byte queue.PortRecords of Seq, Arrival and Out, and the center
// stage (midstage.Stage) holds them with In in Out's place.
package baseline

import (
	"sprinklers/internal/midstage"
	"sprinklers/internal/queue"
	"sprinklers/internal/sim"
)

// Switch is a baseline load-balanced switch. Create one with New.
type Switch struct {
	n int
	t sim.Slot
	// One queue per input, outputs mixed: the queue's index does not say
	// where a packet is going, so it holds queue.PortRecords (Seq,
	// Arrival, Out) rather than the RecordFIFO records of the per-(input,
	// output) VOQs elsewhere.
	inputs []queue.FIFO[queue.PortRecord]
	mid    *midstage.Stage
	inBuf  int // packets at the input side
}

// New builds an n-port baseline load-balanced switch.
func New(n int) *Switch {
	return &Switch{
		n:      n,
		inputs: make([]queue.FIFO[queue.PortRecord], n),
		mid:    midstage.New(n),
	}
}

// N implements sim.Switch.
func (s *Switch) N() int { return s.n }

// Now implements sim.Switch.
func (s *Switch) Now() sim.Slot { return s.t }

// Backlog implements sim.Switch.
func (s *Switch) Backlog() int { return s.inBuf + s.mid.Backlog() }

// Arrive implements sim.Switch.
func (s *Switch) Arrive(p sim.Packet) {
	s.inputs[p.In].Push(queue.PortRecord{Seq: p.Seq, Arrival: p.Arrival, Port: p.Out})
	s.inBuf++
}

// Step implements sim.Switch: it executes one slot of both fabrics. The
// second stage runs before the first so a packet spends at least one full
// slot at an intermediate port.
func (s *Switch) Step(deliver sim.DeliverFunc) {
	t := s.t
	s.mid.Step(t, deliver)
	// First fabric: input i -> intermediate FirstStage(i, t).
	for i := 0; i < s.n; i++ {
		if q := &s.inputs[i]; !q.Empty() {
			s.inBuf--
			r := q.Pop()
			s.mid.Enqueue(sim.FirstStage(i, t, s.n), sim.Packet{Seq: r.Seq, Arrival: r.Arrival, In: int32(i), Out: r.Port})
		}
	}
	s.t++
}
