// Package midstage implements the center stage of every load-balanced
// switch in this repository other than Sprinklers itself: N intermediate
// ports, each holding one queue per output, all on one slab-backed
// queue.Bank indexed l*N+j (the substrate internal/core uses for its stripe
// FIFOs). Two service disciplines share it:
//
//   - Stage serves each (port, output) queue in plain FIFO order: during
//     slot t intermediate port l forwards the head of its queue for output
//     SecondStage(l, t). The baseline, TCP-hashing, FOFF and CMS switches
//     use it. A queued packet is a 24-byte queue.PortRecord (Seq, Arrival,
//     In) in a 32-byte bank node; Out is the queue's own index.
//   - The Spreader, the full-frame switches' (UFS and Padded Frames) core,
//     serves frames atomically: it queues one descriptor per frame, and a
//     frame's packets stay in their VOQ, as 8-byte arrival records in a
//     queue.RecordFIFO on its input's chunk pool, until they depart. The
//     descriptors are on the bank, queued at the (port, output) pair of
//     the frame's first cell.
//
// A frame's cells past its packets are the Spreader's padding: they occupy
// the second-fabric connections of their frame but are never queued or
// delivered, as in the Padded Frames scheme.
package midstage

import (
	"sprinklers/internal/queue"
	"sprinklers/internal/sim"
)

// Stage is the FIFO-service center stage. A queue's index names the port and
// the output, so a queued packet is a queue.PortRecord of Seq, Arrival and
// In, and Take rebuilds it with Out from the index.
type Stage struct {
	n int
	q *queue.Bank[queue.PortRecord] // queue l*n+j: packets at port l for output j
}

// New builds the center stage for an n-port switch.
func New(n int) *Stage {
	return &Stage{n: n, q: queue.NewBank[queue.PortRecord](n * n)}
}

// Enqueue buffers p at intermediate port l.
func (s *Stage) Enqueue(l int, p sim.Packet) {
	s.q.Push(l*s.n+int(p.Out), queue.PortRecord{Seq: p.Seq, Arrival: p.Arrival, Port: p.In})
}

// Take removes the head of intermediate port l's queue for output j; ok is
// false when that queue is empty.
func (s *Stage) Take(l, j int) (p sim.Packet, ok bool) {
	q := l*s.n + j
	if s.q.Empty(q) {
		return p, false
	}
	r := s.q.Pop(q)
	return sim.Packet{Seq: r.Seq, Arrival: r.Arrival, In: r.Port, Out: int32(j)}, true
}

// Step executes one slot of the second fabric: each intermediate port
// forwards the head of its queue for the currently connected output to
// deliver. It returns the number of packets removed.
func (s *Stage) Step(t sim.Slot, deliver sim.DeliverFunc) int {
	removed := 0
	// Port l is connected to output SecondStage(l, t), which is port 0's
	// output plus l, mod n.
	j := sim.SecondStage(0, t, s.n)
	for l := 0; l < s.n; l++ {
		if p, ok := s.Take(l, j); ok {
			removed++
			if deliver != nil {
				deliver(sim.Delivery{Packet: p, Depart: t})
			}
		}
		if j++; j == s.n {
			j = 0
		}
	}
	return removed
}

// Backlog returns the number of packets buffered in the stage.
func (s *Stage) Backlog() int { return s.q.Len() }
