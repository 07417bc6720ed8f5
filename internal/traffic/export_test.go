package traffic

// Accessors only the tests use.

// LinkFactor returns input i's current ingress-link capacity factor.
func (d *Dynamic) LinkFactor(i int) float64 { return d.factor[i] }
