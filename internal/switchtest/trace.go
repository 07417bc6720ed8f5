package switchtest

import "sprinklers/internal/sim"

// Trace replays a fixed arrival schedule. It is used by deterministic tests
// that need exact control over which packet arrives when.
type Trace struct {
	n      int
	bySlot map[sim.Slot][]sim.Packet
	seq    [][]uint64
}

// NewTrace builds an empty trace source for an n-port switch.
func NewTrace(n int) *Trace {
	tr := &Trace{n: n, bySlot: make(map[sim.Slot][]sim.Packet), seq: make([][]uint64, n)}
	for i := range tr.seq {
		tr.seq[i] = make([]uint64, n)
	}
	return tr
}

// Add schedules the arrival of one packet from input in to output out at
// slot t, assigning per-flow sequence numbers automatically. Packets
// added for the same (slot, input) pair beyond the first violate the speed-1
// port model and cause a panic.
func (tr *Trace) Add(t sim.Slot, in, out int) {
	for _, p := range tr.bySlot[t] {
		if int(p.In) == in {
			panic("switchtest: two arrivals at one input in one slot")
		}
	}
	p := sim.Packet{
		In:      int32(in),
		Out:     int32(out),
		Seq:     tr.seq[in][out],
		Arrival: t,
	}
	tr.seq[in][out]++
	tr.bySlot[t] = append(tr.bySlot[t], p)
}

// N implements sim.Source.
func (tr *Trace) N() int { return tr.n }

// Next implements sim.Source.
func (tr *Trace) Next(t sim.Slot, emit func(sim.Packet)) {
	for _, p := range tr.bySlot[t] {
		emit(p)
	}
}
