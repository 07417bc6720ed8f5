package traffic

import (
	"math/rand"

	"sprinklers/internal/sim"
)

// OnOff is a bursty Markov-modulated arrival process: each input alternates
// between an ON state, during which a packet arrives every slot, and an OFF
// state with no arrivals. Mean burst and idle lengths are geometric. The
// long-term rate of input i equals meanOn/(meanOn+meanOff); destinations are
// drawn from the rate matrix's conditional row distribution, so the matrix
// fixes per-VOQ rates while OnOff controls burstiness. It stresses the
// schedulers far harder than the Bernoulli process at the same load.
//
// An OFF period lasts at least one slot, so a mean burst b leaves room for
// a load rho only while b >= rho/(1-rho). Above that the input's burst is
// lengthened instead: OFF lasts exactly one slot and the mean burst is
// rho/(1-rho), so the offered load is still rho (see onOffProbs).
type OnOff struct {
	n      int
	rng    rng
	burst  float64
	on     []bool
	pOnOff []float64 // P(ON -> OFF) per slot
	pOffOn []float64
	factor []float64 // ingress-link capacity factor, thinning ON slots
	alias  []aliasTable
	seq    [][]uint64
}

// NewOnOff builds an on/off source whose per-input load matches m's row sums
// and whose mean burst length is meanBurst slots. meanBurst must be >= 1.
func NewOnOff(m *Matrix, meanBurst float64, rng *rand.Rand) *OnOff {
	if meanBurst < 1 {
		panic("traffic: mean burst length must be >= 1")
	}
	n := m.N()
	src := &OnOff{
		n:      n,
		rng:    newRNG(rng.Uint64()),
		burst:  meanBurst,
		on:     make([]bool, n),
		pOnOff: make([]float64, n),
		pOffOn: make([]float64, n),
		factor: make([]float64, n),
		alias:  make([]aliasTable, n),
		seq:    newSeq(n),
	}
	for i := 0; i < n; i++ {
		src.setRow(m, i, 1)
	}
	return src
}

// setRow (re)builds input i's on/off chain and destination alias table
// from row i of m, with the input's ingress link at capacity factor
// linkFactor. The duty cycle tracks the row sum; the link factor gates
// emission inside ON bursts instead (see Next), so a degraded link thins a
// burst rather than stretching the off period. Per-flow sequence counters
// carry over untouched.
func (o *OnOff) setRow(m *Matrix, i int, linkFactor float64) {
	load := m.RowSum(i)
	if load >= 1 {
		load = 1 - 1e-9
	}
	if load > 0 {
		o.pOnOff[i], o.pOffOn[i] = onOffProbs(o.burst, load)
	} else {
		o.pOnOff[i], o.pOffOn[i] = 0, 0
		o.on[i] = false
	}
	o.factor[i] = linkFactor
	// The alias construction normalizes the row internally.
	o.alias[i] = newAliasTable(m.Row(i))
}

// onOffProbs returns P(ON -> OFF) and P(OFF -> ON) per slot for an input
// with mean burst b at load in (0, 1). The chain's stationary P(ON) is
// q/(p+q), so p = 1/b and q = 1/meanOff with meanOff = b(1-load)/load give
// the load. An OFF period cannot be shorter than one slot, so once meanOff
// < 1 OFF lasts exactly one slot (q = 1) and p = (1-load)/load: the mean
// burst grows to load/(1-load) >= b and the load is still exact.
func onOffProbs(b, load float64) (p, q float64) {
	meanOff := b * (1 - load) / load
	if meanOff < 1 {
		return (1 - load) / load, 1
	}
	return 1 / b, 1 / meanOff
}

// N implements sim.Source.
func (o *OnOff) N() int { return o.n }

// Next implements sim.Source.
func (o *OnOff) Next(t sim.Slot, emit func(sim.Packet)) {
	for i := 0; i < o.n; i++ {
		if o.on[i] {
			if o.rng.Float64() < o.pOnOff[i] {
				o.on[i] = false
			}
		} else if o.pOffOn[i] > 0 && o.rng.Float64() < o.pOffOn[i] {
			o.on[i] = true
		}
		if !o.on[i] {
			continue
		}
		if f := o.factor[i]; f < 1 && o.rng.Float64() >= f {
			continue
		}
		j := o.alias[i].draw(&o.rng)
		emit(sim.Packet{
			In:      int32(i),
			Out:     int32(j),
			Seq:     o.seq[i][j],
			Arrival: t,
		})
		o.seq[i][j]++
	}
}

func newSeq(n int) [][]uint64 {
	s := make([][]uint64, n)
	for i := range s {
		s[i] = make([]uint64, n)
	}
	return s
}
