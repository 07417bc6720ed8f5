package traffic

import (
	"math/rand"

	"sprinklers/internal/sim"
)

// Phased is an arrival process whose rate matrix changes at configured
// times: Bernoulli arrivals from one matrix per phase, with per-flow packet
// sequence numbers continuing across phase boundaries. It drives the
// adaptive stripe-resizing experiments, where the switch must keep flows in
// order across a workload shift.
type Phased struct {
	n      int
	rng    rng
	phases []phase
	seq    [][]uint64
}

type phase struct {
	until sim.Slot // exclusive end slot of this phase
	prob  []float64
	alias []aliasTable
}

// NewPhased builds an empty phased source for an n-port switch.
func NewPhased(n int, rng *rand.Rand) *Phased {
	return &Phased{n: n, rng: newRNG(rng.Uint64()), seq: newSeq(n)}
}

// AddPhase appends a phase of the given duration using rate matrix m. It
// returns the source for chaining.
func (p *Phased) AddPhase(m *Matrix, duration sim.Slot) *Phased {
	if m.N() != p.n {
		panic("traffic: phase matrix size mismatch")
	}
	start := sim.Slot(0)
	if len(p.phases) > 0 {
		start = p.phases[len(p.phases)-1].until
	}
	ph := phase{
		until: start + duration,
		prob:  make([]float64, p.n),
		alias: make([]aliasTable, p.n),
	}
	for i := 0; i < p.n; i++ {
		ph.prob[i] = m.RowSum(i)
		ph.alias[i] = newConditionalAliasTable(m, i)
	}
	p.phases = append(p.phases, ph)
	return p
}

// N implements sim.Source.
func (p *Phased) N() int { return p.n }

// Next implements sim.Source. Slots beyond the last phase produce no
// arrivals.
func (p *Phased) Next(t sim.Slot, emit func(sim.Packet)) {
	var ph *phase
	for i := range p.phases {
		if t < p.phases[i].until {
			ph = &p.phases[i]
			break
		}
	}
	if ph == nil {
		return
	}
	for i := 0; i < p.n; i++ {
		if ph.prob[i] == 0 || p.rng.Float64() >= ph.prob[i] {
			continue
		}
		j := ph.alias[i].draw(&p.rng)
		emit(sim.Packet{
			In:      int32(i),
			Out:     int32(j),
			Seq:     p.seq[i][j],
			Arrival: t,
		})
		p.seq[i][j]++
	}
}
