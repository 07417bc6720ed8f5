package traffic

import (
	"math/rand"

	"sprinklers/internal/registry"
	"sprinklers/internal/sim"
)

// Dynamic is the arrival process behind dynamic scenarios: Bernoulli (or
// bursty on/off) arrivals whose rate matrix and per-input ingress-link
// capacity change mid-run according to a registry.Event timeline. Per-flow
// sequence numbers persist across every event, so reordering remains
// observable across a reconfiguration boundary — the property the
// conformance shift tests assert.
//
// A rate event rebuilds the per-input alias tables in place; a link event
// scales one input's effective arrival probability by its capacity factor
// (0 = failed ingress link, no cell can enter; 1 = full capacity). With a
// mean burst length >= 1 the source runs the same two-state on/off chain as
// OnOff, with both transition probabilities re-solved after every event so
// the duty cycle keeps tracking the current matrix row sums.
type Dynamic struct {
	n      int
	rng    rng
	events []registry.Event
	next   int // index of the next unapplied event

	baseProb []float64 // current matrix row sums, clamped to [0, 1]
	factor   []float64 // ingress-link capacity factor per input
	arriv    []uint64  // Bernoulli: effective arrival threshold per input
	dest     []destEntry

	// on/off burst state (active when burst >= 1). Bursty destination
	// draws go through the exact float alias tables, matching OnOff draw
	// for draw; the truncated 32-bit thresholds in dest serve the
	// Bernoulli mode, matching Bernoulli draw for draw. dest always
	// carries the per-flow sequence counters.
	burst  float64
	on     []bool
	alias  []aliasTable
	pOnOff []float64
	pOffOn []float64

	nextID uint64
}

// NewDynamic builds a dynamic source that starts from rate matrix base with
// every ingress link at full capacity and applies events as the clock
// reaches them. meanBurst selects the arrival process: 0 runs Bernoulli
// arrivals, >= 1 runs on/off arrivals with that mean burst length. The
// source's internal fast generator is seeded from rng, so the same seed
// reproduces the same packet trace. Events must be sorted by At
// (registry.BuildScenario returns them sorted).
func NewDynamic(base *Matrix, events []registry.Event, meanBurst float64, rng *rand.Rand) *Dynamic {
	if meanBurst != 0 && meanBurst < 1 {
		panic("traffic: mean burst length must be 0 (Bernoulli) or >= 1")
	}
	n := base.N()
	d := &Dynamic{
		n:        n,
		rng:      newRNG(rng.Uint64()),
		events:   events,
		baseProb: make([]float64, n),
		factor:   make([]float64, n),
		arriv:    make([]uint64, n),
		dest:     make([]destEntry, n*n),
		burst:    meanBurst,
	}
	for i := range d.factor {
		d.factor[i] = 1
	}
	if meanBurst >= 1 {
		d.on = make([]bool, n)
		d.alias = make([]aliasTable, n)
		d.pOnOff = make([]float64, n)
		d.pOffOn = make([]float64, n)
	}
	d.applyRates(base)
	return d
}

// applyRates swaps the current rate matrix: row sums, alias tables and
// arrival thresholds are rebuilt in place while per-flow sequence counters
// carry over untouched.
func (d *Dynamic) applyRates(m *Matrix) {
	for i := 0; i < d.n; i++ {
		prob := m.RowSum(i)
		if prob > 1 {
			prob = 1
		}
		d.baseProb[i] = prob
		if d.on != nil {
			// OnOff samples the unnormalized row; the alias construction
			// normalizes internally, so the tables (and hence the draws)
			// come out identical to OnOff's.
			d.alias[i] = newAliasTable(m.Row(i))
		}
		t := newConditionalAliasTable(m, i)
		for j := range t.prob {
			e := &d.dest[i*d.n+j]
			thresh := t.prob[j] * (1 << 32)
			if thresh > 0xffffffff {
				thresh = 0xffffffff
			}
			e.thresh = uint32(thresh)
			e.alias = int32(t.alias[j])
		}
		d.refresh(i)
	}
}

// refresh recomputes input i's derived arrival state from its current row
// sum and link factor.
func (d *Dynamic) refresh(i int) {
	eff := d.baseProb[i] * d.factor[i]
	if eff >= 1 {
		d.arriv[i] = ^uint64(0)
	} else {
		d.arriv[i] = uint64(eff * 0x1p64)
	}
	if d.on != nil {
		// The on/off duty cycle tracks the matrix row sum; the link factor
		// gates emission inside ON bursts instead (see Next), so a degraded
		// link thins a burst rather than stretching the off period.
		load := d.baseProb[i]
		if load >= 1 {
			load = 1 - 1e-9
		}
		if load > 0 {
			d.pOnOff[i], d.pOffOn[i] = onOffProbs(d.burst, load)
		} else {
			d.pOffOn[i] = 0
			d.on[i] = false
		}
	}
}

// applyLink sets input i's ingress-link capacity factor.
func (d *Dynamic) applyLink(c registry.LinkChange) {
	d.factor[c.Input] = c.Factor
	d.refresh(c.Input)
}

// N implements sim.Source.
func (d *Dynamic) N() int { return d.n }

// LinkFactor returns input i's current ingress-link capacity factor.
func (d *Dynamic) LinkFactor(i int) float64 { return d.factor[i] }

// Next implements sim.Source: it applies every event due at or before slot
// t, then emits the slot's arrivals.
func (d *Dynamic) Next(t sim.Slot, emit func(sim.Packet)) {
	for d.next < len(d.events) && d.events[d.next].At <= t {
		e := d.events[d.next]
		d.next++
		if e.Rates != nil {
			d.applyRates(NewMatrix(e.Rates))
		} else if e.Link != nil {
			d.applyLink(*e.Link)
		}
	}
	for i := 0; i < d.n; i++ {
		if d.on != nil {
			// Bursty mode: advance the on/off chain, then emit inside ON
			// bursts with probability equal to the link factor.
			if d.on[i] {
				if d.rng.Float64() < d.pOnOff[i] {
					d.on[i] = false
				}
			} else if d.pOffOn[i] > 0 && d.rng.Float64() < d.pOffOn[i] {
				d.on[i] = true
			}
			if !d.on[i] {
				continue
			}
			if f := d.factor[i]; f < 1 && d.rng.Float64() >= f {
				continue
			}
		} else if d.rng.Uint64() >= d.arriv[i] {
			continue
		}
		var j int
		if d.on != nil {
			j = d.alias[i].draw(&d.rng)
		} else {
			u := d.rng.Uint64()
			j = int(((u >> 32) * uint64(d.n)) >> 32)
			if e := &d.dest[i*d.n+j]; uint32(u) >= e.thresh {
				j = int(e.alias)
			}
		}
		e := &d.dest[i*d.n+j]
		emit(sim.Packet{
			ID:      d.nextID,
			In:      int32(i),
			Out:     int32(j),
			Seq:     e.seq,
			Arrival: t,
		})
		d.nextID++
		e.seq++
	}
}
