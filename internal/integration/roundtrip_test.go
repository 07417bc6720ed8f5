package integration

import (
	"fmt"
	"math/rand"
	"testing"

	"sprinklers/internal/cms"
	"sprinklers/internal/conformance"
	"sprinklers/internal/foff"
	"sprinklers/internal/pf"
	"sprinklers/internal/sim"
	"sprinklers/internal/switchtest"
	"sprinklers/internal/traffic"
	"sprinklers/internal/ufs"
)

// TestRecordVOQRoundTrip: UFS, PF, FOFF and CMS queue a packet as an
// {arrival} record and rebuild the sim.Packet from the VOQ's (input, output)
// and the record's queue position where they take it out. The conformance
// checker compares every delivery, field for field, with the packet offered
// under that (In, Out, Seq) and rejects a delivered fake, so a rebuild that mixes up In and Out (or a
// queue that hands back a neighbour's record) fails here by name rather than
// through a digest. The matrix is a random asymmetric one, so no such swap
// can hide; PF must also have padded, or its fake cells were never at risk of
// escaping.
func TestRecordVOQRoundTrip(t *testing.T) {
	switches := []struct {
		name string
		new  func(n int) sim.Switch
	}{
		{"ufs", func(n int) sim.Switch { return ufs.New(n) }},
		{"pf", func(n int) sim.Switch { return pf.New(n, pf.DefaultThreshold(n)) }},
		{"foff", func(n int) sim.Switch { return foff.New(n) }},
		{"cms", func(n int) sim.Switch { return cms.New(n) }},
	}
	sources := []struct {
		name string
		new  func(m *traffic.Matrix, rng *rand.Rand) sim.Source
	}{
		{"bernoulli", func(m *traffic.Matrix, rng *rand.Rand) sim.Source { return traffic.NewBernoulli(m, rng) }},
		{"onoff", func(m *traffic.Matrix, rng *rand.Rand) sim.Source { return traffic.NewOnOff(m, float64(2*m.N()), rng) }},
	}
	for _, arch := range switches {
		for _, source := range sources {
			for _, n := range []int{3, 8, 32} {
				t.Run(fmt.Sprintf("%s/%s/N-%d", arch.name, source.name, n), func(t *testing.T) {
					t.Parallel()
					rng := rand.New(rand.NewSource(int64(n)))
					m := switchtest.RandomAdmissible(n, 0.85, rng)
					inner := arch.new(n)
					sw := conformance.Wrap(inner)
					slots := sim.Slot(40 * n * n) // dozens of frame-accumulation times
					_, delivered := sim.Run(sw, source.new(m, rng), nil, sim.WithWarmup(slots/10), sim.WithSlots(slots))
					if v := sw.Violation(); v != "" {
						t.Fatal(v)
					}
					if delivered < int64(slots)/2 {
						t.Fatalf("delivered %d packets in %d slots: the run does not exercise the VOQs", delivered, slots)
					}
					if p, ok := inner.(*pf.Switch); ok && p.PaddingInjected() == 0 {
						t.Fatal("PF never padded a frame")
					}
				})
			}
		}
	}
}
