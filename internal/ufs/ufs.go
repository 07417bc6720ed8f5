// Package ufs implements Uniform Frame Spreading (Keslassy, Sec. 2.2 of the
// paper): an input may transmit a VOQ's packets only after accumulating a
// full frame of N packets, which it then spreads over the next N slots, one
// packet to each intermediate port. Full frames keep the per-output queue
// lengths identical across all intermediate ports, so every packet to an
// output experiences the same center-stage delay and order is preserved.
//
// UFS achieves 100% throughput for admissible traffic but pays O(N^3)
// worst-case delay, and its delay is dominated by frame accumulation at
// light load — the weakness Figs. 6 and 7 of the paper exhibit and that
// Sprinklers' rate-proportional stripes remove.
package ufs

import (
	"sprinklers/internal/midstage"
	"sprinklers/internal/sim"
)

// Switch is a Uniform Frame Spreading switch: the shared full-frame
// spreader with no padding policy, so an input idles until a frame fills.
type Switch struct {
	n  int
	t  sim.Slot
	sp *midstage.Spreader
}

// New builds an n-port UFS switch.
func New(n int) *Switch {
	return &Switch{n: n, sp: midstage.NewSpreader(n)}
}

// N implements sim.Switch.
func (s *Switch) N() int { return s.n }

// Now implements sim.Switch.
func (s *Switch) Now() sim.Slot { return s.t }

// Backlog implements sim.Switch.
func (s *Switch) Backlog() int { return s.sp.Backlog() }

// Arrive implements sim.Switch.
func (s *Switch) Arrive(p sim.Packet) { s.sp.Arrive(p) }

// Step implements sim.Switch.
func (s *Switch) Step(deliver sim.DeliverFunc) {
	s.sp.Step(s.t, deliver, nil)
	s.t++
}
