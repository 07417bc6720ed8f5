package traffic

import "sprinklers/internal/sim"

// Accessors only the tests use.

// LinkFactor returns input i's current ingress-link capacity factor.
func (d *Dynamic) LinkFactor(i int) float64 { return d.factor[i] }

// TotalSlots returns the combined duration of all phases.
func (p *Phased) TotalSlots() sim.Slot {
	if len(p.phases) == 0 {
		return 0
	}
	return p.phases[len(p.phases)-1].until
}
