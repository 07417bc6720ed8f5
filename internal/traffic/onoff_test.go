package traffic

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"sprinklers/internal/sim"
)

// TestOnOffRealisedLoad: OnOff and an eventless bursty Dynamic must offer
// the load their matrix asks for, emitted / (N x slots) within 1 % of rho,
// for every mean burst b, including the pairs with b < rho/(1-rho). There
// the mean idle period b(1-rho)/rho is below the one slot an OFF period
// lasts at least, and a chain that kept P(ON -> OFF) = 1/b would cap the
// load at b/(b+1): 0.5 at b = 1, 0.8 at b = 4, 0.941 at b = 16 and rho =
// 0.98.
func TestOnOffRealisedLoad(t *testing.T) {
	const (
		n     = 8
		slots = 400_000
	)
	for _, b := range []float64{1, 4, 16} {
		for _, load := range []float64{0.5, 0.9, 0.98} {
			m := Uniform(n, load)
			for name, src := range map[string]sim.Source{
				"onoff":   NewOnOff(m, b, rand.New(rand.NewSource(21))),
				"dynamic": NewDynamic(m, nil, b, rand.New(rand.NewSource(21))),
			} {
				var emitted int64
				for tt := sim.Slot(0); tt < slots; tt++ {
					src.Next(tt, func(sim.Packet) { emitted++ })
				}
				got := float64(emitted) / (n * slots)
				if math.Abs(got-load) > 0.01*load {
					t.Errorf("%s b=%g load=%g: realised load %.4f", name, b, load, got)
				}
			}
		}
	}
}

// TestOnOffFeasiblePin: a pair whose mean idle period is at least one slot
// (b = 16, rho = 0.5) draws the same chain as before the infeasible pairs
// were fixed, so its emissions hash to the value recorded then.
func TestOnOffFeasiblePin(t *testing.T) {
	const want = "493409c0f53e529c"
	m := Uniform(8, 0.5)
	for name, src := range map[string]sim.Source{
		"onoff":   NewOnOff(m, 16, rand.New(rand.NewSource(5))),
		"dynamic": NewDynamic(m, nil, 16, rand.New(rand.NewSource(5))),
	} {
		h := fnv.New64a()
		for _, p := range collect(src, 20_000) {
			fmt.Fprintf(h, "%d %d %d %d %d\n", p.ID, p.In, p.Out, p.Seq, p.Arrival)
		}
		if got := fmt.Sprintf("%016x", h.Sum64()); got != want {
			t.Errorf("%s: emission hash %s, want %s", name, got, want)
		}
	}
}
