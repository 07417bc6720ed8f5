// Package hashing implements the TCP-hashing scheme ("Application Flow
// Based Routing", Sec. 2.1 of the paper): every VOQ is pinned to a single
// intermediate port chosen by hashing, so all of a flow's packets share one
// path and order is trivially preserved.
//
// The scheme is the strawman that motivates Sprinklers: because a whole
// VOQ's rate lands on one intermediate port, an unlucky hash oversubscribes
// a port and the switch loses throughput. The test suite and the ablation
// benches demonstrate the instability under admissible traffic that
// Sprinklers handles comfortably.
//
// An input's queue per intermediate port mixes the outputs hashed to that
// port, so it holds whole sim.Packets, as the center stage (midstage.Stage)
// does.
package hashing

import (
	"math/rand"

	"sprinklers/internal/midstage"
	"sprinklers/internal/queue"
	"sprinklers/internal/sim"
)

// Switch is a TCP-hashing (AFBR) load-balanced switch.
type Switch struct {
	n    int
	t    sim.Slot
	hash [][]int // hash[i][j]: intermediate port for VOQ (i,j)
	// inputs[i][l]: packets at input i bound for intermediate l. Several
	// outputs hash to one port, so a queue's index does not give Out and the
	// queue holds whole packets, not RecordFIFO records.
	inputs [][]queue.FIFO[sim.Packet]
	mid    *midstage.Stage
	inBuf  int // packets at the input side
}

// New builds an n-port hashing switch. The per-VOQ intermediate port choices
// are drawn uniformly at random from rng, modelling a hash over flow
// identifiers.
func New(n int, rng *rand.Rand) *Switch {
	s := &Switch{
		n:      n,
		hash:   make([][]int, n),
		inputs: make([][]queue.FIFO[sim.Packet], n),
		mid:    midstage.New(n),
	}
	for i := 0; i < n; i++ {
		s.hash[i] = make([]int, n)
		for j := range s.hash[i] {
			s.hash[i][j] = rng.Intn(n)
		}
		s.inputs[i] = make([]queue.FIFO[sim.Packet], n)
	}
	return s
}

// N implements sim.Switch.
func (s *Switch) N() int { return s.n }

// Now implements sim.Switch.
func (s *Switch) Now() sim.Slot { return s.t }

// Backlog implements sim.Switch.
func (s *Switch) Backlog() int { return s.inBuf + s.mid.Backlog() }

// Arrive implements sim.Switch.
func (s *Switch) Arrive(p sim.Packet) {
	s.inputs[p.In][s.hash[p.In][p.Out]].Push(p)
	s.inBuf++
}

// Step implements sim.Switch.
func (s *Switch) Step(deliver sim.DeliverFunc) {
	t := s.t
	s.mid.Step(t, deliver)
	for i := 0; i < s.n; i++ {
		l := sim.FirstStage(i, t, s.n)
		if q := &s.inputs[i][l]; !q.Empty() {
			s.inBuf--
			s.mid.Enqueue(l, q.Pop())
		}
	}
	s.t++
}
