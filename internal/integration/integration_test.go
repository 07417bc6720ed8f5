// Package integration runs cross-architecture system tests: every switch
// registered in internal/registry under every registered workload shape,
// wrapped in the conformance checker, with the paper's qualitative claims
// asserted as invariants. Because the suites iterate the registry, a newly
// registered architecture or workload is protocol-tested with no test
// changes.
package integration

import (
	"fmt"
	"math/rand"
	"testing"

	"sprinklers/internal/experiment"
	"sprinklers/internal/registry"
	"sprinklers/internal/sim"
	"sprinklers/internal/stats"
	"sprinklers/internal/switchtest"
	"sprinklers/internal/traffic"
)

// TestAllSwitchesConformUnderAllTraffic is the workhorse: every registered
// architecture x every registered workload, each run under the conformance
// checker with ordering and throughput assertions driven by the registered
// metadata.
func TestAllSwitchesConformUnderAllTraffic(t *testing.T) {
	const (
		n     = 16
		slots = 30000
	)
	for _, arch := range registry.Architectures.All() {
		for _, wl := range registry.Workloads.All() {
			arch, wl := arch, wl
			alg := experiment.Algorithm(arch.Name)
			kind := experiment.TrafficKind(wl.Name)
			t.Run(fmt.Sprintf("%s/%s", alg, kind), func(t *testing.T) {
				t.Parallel()
				// Architectures that document a stability ceiling (hashing
				// is genuinely unstable under concentrated patterns — its
				// documented defect, tested separately) are driven at it,
				// not above it.
				load := 0.85
				if arch.MaxStableLoad > 0 && load > arch.MaxStableLoad {
					load = arch.MaxStableLoad
				}
				rng := rand.New(rand.NewSource(1))
				m, err := experiment.PatternOpts(kind, n, load, rng, nil)
				if err != nil {
					t.Fatal(err)
				}
				inner, err := experiment.NewSwitchOpts(alg, m, 1, nil)
				if err != nil {
					t.Fatal(err)
				}
				sw := switchtest.Wrap(inner)
				src := traffic.NewBernoulli(m, rand.New(rand.NewSource(2)))
				delay := &stats.Delay{}
				reorder := stats.NewReorder(n)
				offered, delivered := sim.Run(sw, src,
					stats.Multi{delay, reorder},
					sim.WithWarmup(slots/5), sim.WithSlots(slots))
				if v := sw.Violation(); v != "" {
					t.Fatalf("conformance violation: %s", v)
				}
				if arch.OrderPreserving && reorder.Reordered() != 0 {
					t.Fatalf("%s reordered %d packets under %s", alg, reorder.Reordered(), kind)
				}
				if arch.MaxStableLoad == 0 {
					if tp := float64(delivered) / float64(offered); tp < 0.9 {
						t.Fatalf("throughput %.3f", tp)
					}
				}
			})
		}
	}
}

// orderPreservingStable lists the registered architectures that both
// promise in-order delivery and are stable at the given load.
func orderPreservingStable(load float64) []registry.Architecture {
	var out []registry.Architecture
	for _, arch := range registry.Architectures.All() {
		if arch.OrderPreserving && (arch.MaxStableLoad == 0 || arch.MaxStableLoad >= load) {
			out = append(out, arch)
		}
	}
	return out
}

// TestBurstyArrivalsAllOrderPreserving: the ordering guarantees must
// survive bursty (on/off) arrivals, which stress the schedulers much
// harder than Bernoulli traffic.
func TestBurstyArrivalsAllOrderPreserving(t *testing.T) {
	const n = 16
	for _, arch := range orderPreservingStable(0.75) {
		alg := experiment.Algorithm(arch.Name)
		t.Run(string(alg), func(t *testing.T) {
			t.Parallel()
			m := traffic.Diagonal(n, 0.75)
			inner, err := experiment.NewSwitchOpts(alg, m, 3, nil)
			if err != nil {
				t.Fatal(err)
			}
			sw := switchtest.Wrap(inner)
			src := traffic.NewOnOff(m, 24, rand.New(rand.NewSource(4)))
			reorder := stats.NewReorder(n)
			sim.Run(sw, src, reorder, sim.WithWarmup(8000), sim.WithSlots(60000))
			if v := sw.Violation(); v != "" {
				t.Fatalf("conformance violation: %s", v)
			}
			if reorder.Reordered() != 0 {
				t.Fatalf("%s reordered %d packets under bursty arrivals", alg, reorder.Reordered())
			}
		})
	}
}

// TestPaperDelayOrdering asserts the qualitative relationships of Figure 6
// at two representative loads.
func TestPaperDelayOrdering(t *testing.T) {
	const n = 32
	mean := func(alg experiment.Algorithm, load float64) float64 {
		p, err := experiment.RunPoint(alg, experiment.Config{
			N: n, Traffic: experiment.UniformTraffic, Slots: 150000, Seed: 5,
		}, load)
		if err != nil {
			t.Fatal(err)
		}
		return p.MeanDelay
	}
	// Light load: baseline < FOFF << Sprinklers < UFS; UFS pays full-frame
	// accumulation, an order of magnitude above Sprinklers.
	lb, foff, spr, ufs := mean(experiment.LoadBalanced, 0.1),
		mean(experiment.FOFF, 0.1),
		mean(experiment.Sprinklers, 0.1),
		mean(experiment.UFS, 0.1)
	if !(lb < foff && foff < spr && spr < ufs) {
		t.Fatalf("light-load ordering broken: lb=%.0f foff=%.0f sprinklers=%.0f ufs=%.0f",
			lb, foff, spr, ufs)
	}
	if ufs < 4*spr {
		t.Fatalf("UFS (%.0f) should dwarf Sprinklers (%.0f) at light load", ufs, spr)
	}
	// High load: Sprinklers stays in the same flat band while the baseline
	// keeps climbing; UFS converges toward Sprinklers.
	spr9, ufs9 := mean(experiment.Sprinklers, 0.9), mean(experiment.UFS, 0.9)
	if spr9 > 3*spr+1500 {
		t.Fatalf("Sprinklers not flat: %.0f at 0.1 vs %.0f at 0.9", spr, spr9)
	}
	if ufs9 > 3*spr9 {
		t.Fatalf("UFS (%.0f) should approach Sprinklers (%.0f) at high load", ufs9, spr9)
	}
}

// TestLongRunStability: at a high admissible load, backlog must stay
// bounded over a long horizon for every stable architecture (throughput
// ~= offered rate), catching slow leaks the short tests would miss.
func TestLongRunStability(t *testing.T) {
	if testing.Short() {
		t.Skip("long-run test")
	}
	const n = 16
	for _, alg := range experiment.Fig6Algorithms {
		alg := alg
		t.Run(string(alg), func(t *testing.T) {
			t.Parallel()
			m := traffic.Uniform(n, 0.92)
			inner, err := experiment.NewSwitchOpts(alg, m, 7, nil)
			if err != nil {
				t.Fatal(err)
			}
			src := traffic.NewBernoulli(m, rand.New(rand.NewSource(8)))
			sim.Run(inner, src, nil, sim.WithSlots(200000))
			backlogMid := inner.Backlog()
			// Second half starting from the warm state: backlog must not
			// grow materially.
			end := inner.Now() + 200000
			for inner.Now() < end {
				src.Next(inner.Now(), inner.Arrive)
				inner.Step(nil)
			}
			backlogEnd := inner.Backlog()
			if backlogEnd > 2*backlogMid+5*n*n {
				t.Fatalf("backlog grew %d -> %d over second half; not stable", backlogMid, backlogEnd)
			}
		})
	}
}

// TestCrossSeedConsistency: the qualitative results must not be an
// artifact of one RNG stream.
func TestCrossSeedConsistency(t *testing.T) {
	const n = 16
	for seed := int64(10); seed < 13; seed++ {
		m := switchtest.RandomAdmissible(n, 0.8, rand.New(rand.NewSource(seed)))
		inner, err := experiment.NewSwitchOpts(experiment.Sprinklers, m, seed, nil)
		if err != nil {
			t.Fatal(err)
		}
		sw := switchtest.Wrap(inner)
		r := switchtest.Run(sw, m, 40000, seed+100)
		if v := sw.Violation(); v != "" {
			t.Fatalf("seed %d: %s", seed, v)
		}
		switchtest.CheckOrdered(t, r)
		switchtest.CheckThroughput(t, r, 0.9)
	}
}
