// Package midstage implements the center stage of every load-balanced
// switch in this repository other than Sprinklers itself: N intermediate
// ports, each holding one queue per output, all on one slab-backed
// queue.Bank indexed l*N+j (the substrate internal/core uses for its stripe
// FIFOs). Two service disciplines share it:
//
//   - Stage serves each (port, output) queue in plain FIFO order: during
//     slot t intermediate port l forwards the head of its queue for output
//     SecondStage(l, t). The baseline, TCP-hashing, FOFF and CMS switches
//     use it.
//   - The Spreader, the full-frame switches' (UFS and Padded Frames) core,
//     serves frames atomically: it queues one descriptor per frame, and a
//     frame's packets stay in their VOQ, a queue.RecordFIFO on its input's
//     chunk pool, until they depart. The descriptors are on the bank,
//     queued at the (port, output) pair of the frame's first cell.
//
// Padding cells (Packet.Fake in Stage, a frame's cells past its packets in
// the Spreader) occupy queue slots and second-fabric connections but are
// consumed silently at the output, as in the Padded Frames scheme.
package midstage

import (
	"sprinklers/internal/queue"
	"sprinklers/internal/sim"
)

// Stage is the FIFO-service center stage.
type Stage struct {
	n    int
	q    *queue.Bank[sim.Packet] // queue l*n+j: packets at port l for output j
	real int                     // non-fake packets buffered
}

// New builds the center stage for an n-port switch.
func New(n int) *Stage {
	return &Stage{n: n, q: queue.NewBank[sim.Packet](n * n)}
}

// Enqueue buffers p at intermediate port l.
func (s *Stage) Enqueue(l int, p sim.Packet) {
	s.q.Push(l*s.n+int(p.Out), p)
	if !p.Fake {
		s.real++
	}
}

// Step executes one slot of the second fabric: each intermediate port
// forwards to its currently connected output. Real packets are handed to
// deliver; fake ones vanish. It returns the number of real packets removed.
func (s *Stage) Step(t sim.Slot, deliver sim.DeliverFunc) int {
	removed := 0
	for l := 0; l < s.n; l++ {
		q := l*s.n + sim.SecondStage(l, t, s.n)
		if s.q.Empty(q) {
			continue
		}
		p := s.q.Pop(q)
		if p.Fake {
			continue
		}
		s.real--
		removed++
		if deliver != nil {
			deliver(sim.Delivery{Packet: p, Depart: t})
		}
	}
	return removed
}

// Backlog returns the number of real packets buffered in the stage.
func (s *Stage) Backlog() int { return s.real }

// QueueLen returns the queue length (including fakes) at intermediate port
// l for output j. It walks the queue; it exists for the equal-length
// invariant tests.
func (s *Stage) QueueLen(l, j int) int { return s.q.QueueLen(l*s.n + j) }
