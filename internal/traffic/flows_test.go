package traffic

import (
	"fmt"
	"math/rand"
	"testing"

	"sprinklers/internal/registry"
	"sprinklers/internal/sim"
)

// TestSourcesNumberFlowsConsecutively checks the contract a switch's VOQ
// relies on to derive a buffered packet's Seq from its queue position: every
// source numbers each (In, Out) flow 0, 1, 2 … with no gap and no repeat,
// across a matrix swap and a link failure and recovery.
func TestSourcesNumberFlowsConsecutively(t *testing.T) {
	const slots = 1500
	for _, n := range []int{8, 32} {
		events := func() []registry.Event {
			return []registry.Event{
				{At: slots / 4, Rates: Diagonal(n, 0.9).Rows()},
				{At: slots / 2, Link: &registry.LinkChange{Input: 1, Factor: 0}},
				{At: 3 * slots / 4, Link: &registry.LinkChange{Input: 1, Factor: 1}},
			}
		}
		sources := map[string]func(rng *rand.Rand) sim.Source{
			"bernoulli": func(rng *rand.Rand) sim.Source { return NewBernoulli(Uniform(n, 0.9), rng) },
			"onoff":     func(rng *rand.Rand) sim.Source { return NewOnOff(Hotspot(n, 0.8, 0.5), 8, rng) },
			"dynamic-bernoulli": func(rng *rand.Rand) sim.Source {
				return NewDynamic(Uniform(n, 0.6), events(), 0, rng)
			},
			"dynamic-onoff": func(rng *rand.Rand) sim.Source {
				return NewDynamic(Uniform(n, 0.6), events(), 4, rng)
			},
		}
		for name, build := range sources {
			for seed := int64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("%s/N=%d/seed=%d", name, n, seed), func(t *testing.T) {
					src := build(rand.New(rand.NewSource(seed)))
					next := make([]uint64, n*n)
					packets := 0
					for ts := sim.Slot(0); ts < slots; ts++ {
						src.Next(ts, func(p sim.Packet) {
							f := int(p.In)*n + int(p.Out)
							if p.Seq != next[f] {
								t.Fatalf("slot %d: flow (%d, %d) packet has Seq %d, want %d",
									ts, p.In, p.Out, p.Seq, next[f])
							}
							next[f]++
							packets++
						})
					}
					if packets < slots*n/4 {
						t.Fatalf("%d packets in %d slots: too few to test the numbering", packets, slots)
					}
				})
			}
		}
	}
}
