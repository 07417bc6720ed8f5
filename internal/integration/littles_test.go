package integration

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sprinklers/internal/experiment"
	"sprinklers/internal/registry"
	"sprinklers/internal/sim"
	"sprinklers/internal/stats"
	"sprinklers/internal/traffic"
)

// littleCounter keeps the test's own books on one run: it wraps the source
// to count every arrival and the observer to count every delivery, and a
// slot hook sums the packets in the switch after each measured slot.
// Warmup-arrival deliveries are counted too (sim.Run forwards them all,
// since the run has no warmup of its own), so the count in the switch is
// exact from slot 0. Measured deliveries also feed a stats.Delay, the
// instrument every study reads, so the test can hold its mean to the
// test's own sum.
type littleCounter struct {
	src        sim.Source
	warmup     sim.Slot
	end        sim.Slot // first slot after the measured window
	arrived    int64    // every arrival so far
	delivered  int64    // every delivery so far
	area       int64    // Σ over measured slots of the packets in the switch
	offered    int64    // arrivals in the measured window
	offeredAge int64    // Σ end − t over those arrivals
	sojourn    int64    // Σ Depart − Arrival over their deliveries
	departedAt int64    // Σ end − Arrival over their deliveries
	measured   int64    // their deliveries
	delay      stats.Delay
}

func (c *littleCounter) N() int { return c.src.N() }

func (c *littleCounter) Next(t sim.Slot, emit func(sim.Packet)) {
	c.src.Next(t, func(p sim.Packet) {
		c.arrived++
		if t >= c.warmup {
			c.offered++
			c.offeredAge += int64(c.end - t)
		}
		emit(p)
	})
}

func (c *littleCounter) Observe(d sim.Delivery) {
	c.delivered++
	if d.Packet.Arrival >= c.warmup {
		c.sojourn += int64(d.Depart - d.Packet.Arrival)
		c.departedAt += int64(c.end - d.Packet.Arrival)
		c.measured++
		c.delay.Observe(d)
	}
}

func (c *littleCounter) slotDone(t sim.Slot) {
	if t >= c.warmup {
		c.area += c.arrived - c.delivered
	}
}

// TestLittlesLaw checks every registered architecture's time stamps against
// Little's law, L = λW, at N = 8 under uniform and diagonal Bernoulli
// traffic at ρ = 0.5 and 0.9, over 20 000 measured slots after a 2 000-slot
// warmup. L/λ is the backlog area over the measured window divided by the
// packets offered in it, both counted by the test's own wrappers as the
// packets enter and leave; the censored mean delay is the mean over those
// packets of min(Depart, end) − Arrival, read from the delivery stamps,
// undelivered ones censored at the window's end. The two differ only by
// the residence of warmup arrivals inside the window, so they must agree
// within 1 %; a Depart or Arrival stamped one slot off moves the censored
// mean by a slot and fails it. On the same deliveries, stats.Delay's count
// and mean must equal the test's own count and Σ(Depart − Arrival)/count,
// so a Delay that drops or mis-weights a sample fails too. Little's law
// needs a stationary switch: an architecture whose registered
// MaxStableLoad is below a cell's ρ (today tcp-hashing, at 0.3) runs that
// cell at half its MaxStableLoad instead.
func TestLittlesLaw(t *testing.T) {
	const (
		n      = 8
		warmup = 2000
		slots  = 20000
	)
	for _, arch := range registry.Architectures.All() {
		for _, kind := range []experiment.TrafficKind{experiment.UniformTraffic, experiment.DiagonalTraffic} {
			for _, rho := range []float64{0.5, 0.9} {
				load := rho
				if arch.MaxStableLoad > 0 && arch.MaxStableLoad < rho {
					load = arch.MaxStableLoad / 2
				}
				t.Run(fmt.Sprintf("%s/%s/%g", arch.Name, kind, rho), func(t *testing.T) {
					m, err := experiment.PatternOpts(kind, n, load, nil, nil)
					if err != nil {
						t.Fatal(err)
					}
					sw, err := experiment.NewSwitchOpts(experiment.Algorithm(arch.Name), m, 1, nil)
					if err != nil {
						t.Fatal(err)
					}
					c := &littleCounter{
						src:    traffic.NewBernoulli(m, rand.New(rand.NewSource(int64(10*rho)))),
						warmup: warmup,
						end:    warmup + slots,
					}
					sim.Run(sw, c, c, sim.WithSlots(warmup+slots), sim.WithSlotHook(c.slotDone))
					if c.offered == 0 || c.area == 0 {
						t.Fatalf("offered %d packets, backlog area %d", c.offered, c.area)
					}
					if own := float64(c.sojourn) / float64(c.measured); c.delay.Count() != c.measured ||
						math.Abs(c.delay.Mean()-own) > 1e-9*own {
						t.Errorf("stats.Delay: %d samples, mean %.6f; the test's own books: %d deliveries, mean %.6f",
							c.delay.Count(), c.delay.Mean(), c.measured, own)
					}
					censored := float64(c.sojourn+c.offeredAge-c.departedAt) / float64(c.offered)
					little := float64(c.area) / float64(c.offered)
					if math.Abs(censored-little) > 0.01*little {
						t.Errorf("load %g: censored mean delay %.3f slots, L/λ %.3f slots", load, censored, little)
					}
				})
			}
		}
	}
}
