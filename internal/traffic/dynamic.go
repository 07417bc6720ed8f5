package traffic

import (
	"math/rand"

	"sprinklers/internal/registry"
	"sprinklers/internal/sim"
)

// Dynamic is the arrival process of every simulated point: a Bernoulli
// (mean burst 0) or OnOff (mean burst >= 1) source whose rate matrix and
// per-input ingress-link capacity change mid-run according to a
// registry.Event timeline. It is an event cursor: each slot it applies the
// events that have come due to its inner source, then lets that source
// draw the slot's arrivals. With no events it emits exactly the inner
// source's packet trace. Per-flow sequence numbers persist across every
// event, so reordering remains observable across a reconfiguration
// boundary — the property the conformance shift tests assert.
//
// A rate event rebuilds every input's row of the inner source; a link
// event rebuilds one input's row at its new capacity factor (0 = failed
// ingress link, no cell can enter; 1 = full capacity).
type Dynamic struct {
	src    rowSource
	m      *Matrix   // current rate matrix
	factor []float64 // ingress-link capacity factor per input
	events []registry.Event
	next   int // index of the next unapplied event
}

// rowSource is an arrival process whose per-input rows can be rebuilt in
// place: Bernoulli and OnOff.
type rowSource interface {
	sim.Source
	setRow(m *Matrix, i int, linkFactor float64)
}

// NewDynamic builds a dynamic source that starts from rate matrix base with
// every ingress link at full capacity and applies events as the clock
// reaches them. meanBurst selects the arrival process: 0 runs Bernoulli
// arrivals, >= 1 runs on/off arrivals with that mean burst length. The
// inner source is seeded from rng exactly as NewBernoulli or NewOnOff
// seeds it, so the same seed reproduces the same packet trace. Events must
// be sorted by At (registry.BuildScenario returns them sorted).
func NewDynamic(base *Matrix, events []registry.Event, meanBurst float64, rng *rand.Rand) *Dynamic {
	if meanBurst != 0 && meanBurst < 1 {
		panic("traffic: mean burst length must be 0 (Bernoulli) or >= 1")
	}
	d := &Dynamic{m: base, factor: make([]float64, base.N()), events: events}
	for i := range d.factor {
		d.factor[i] = 1
	}
	if meanBurst == 0 {
		d.src = NewBernoulli(base, rng)
	} else {
		d.src = NewOnOff(base, meanBurst, rng)
	}
	return d
}

// N implements sim.Source.
func (d *Dynamic) N() int { return d.src.N() }

// Next implements sim.Source: it applies every event due at or before slot
// t, then emits the slot's arrivals from the inner source.
func (d *Dynamic) Next(t sim.Slot, emit func(sim.Packet)) {
	for ; d.next < len(d.events) && d.events[d.next].At <= t; d.next++ {
		if e := d.events[d.next]; e.Rates != nil {
			d.m = NewMatrix(e.Rates)
			for i, f := range d.factor {
				d.src.setRow(d.m, i, f)
			}
		} else if e.Link != nil {
			d.factor[e.Link.Input] = e.Link.Factor
			d.src.setRow(d.m, e.Link.Input, e.Link.Factor)
		}
	}
	d.src.Next(t, emit)
}
