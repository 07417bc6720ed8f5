package integration

import (
	"math/rand"
	"testing"

	"sprinklers/internal/experiment"
	"sprinklers/internal/registry"
	"sprinklers/internal/sim"
	"sprinklers/internal/stats"
	"sprinklers/internal/switchtest"
	"sprinklers/internal/traffic"
)

// TestConformanceAcrossMatrixShift drives every registered architecture
// through a mid-run rate-matrix shift — a flash crowd that arrives and
// recedes — under the conformance checker. The physical switch model must
// hold through both reconfiguration boundaries (no teleported or duplicated
// packets, per-slot backlog accounting exact), packets must be conserved
// end-to-end, and order-preserving architectures must deliver zero
// reordered packets across the shift: reconfiguration is precisely when a
// striping scheme is most tempted to let stripes overtake each other.
func TestConformanceAcrossMatrixShift(t *testing.T) {
	const (
		n     = 16
		slots = 20000
	)
	for _, arch := range registry.Architectures() {
		arch := arch
		t.Run(arch.Name, func(t *testing.T) {
			t.Parallel()
			load := 0.8
			if arch.MaxStableLoad > 0 && load > arch.MaxStableLoad {
				load = arch.MaxStableLoad
			}
			rng := rand.New(rand.NewSource(1))
			m, err := experiment.PatternOpts(experiment.UniformTraffic, n, load, rng, nil)
			if err != nil {
				t.Fatal(err)
			}
			events, err := registry.BuildScenario("flashcrowd", registry.ScenarioConfig{
				N: n, Load: load, Base: m.Rows(),
				Warmup: slots / 5, Slots: slots,
				Rand: rng,
			}, map[string]any{"at": 0.25, "duration": 0.25, "surge": 0.8})
			if err != nil {
				t.Fatal(err)
			}
			inner, err := experiment.NewSwitchOpts(experiment.Algorithm(arch.Name), m, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			sw := switchtest.Wrap(inner)
			src := traffic.NewDynamic(m, events, 0, rand.New(rand.NewSource(2)))
			reorder := stats.NewReorder(n)
			sim.Run(sw, src, reorder, sim.WithWarmup(slots/5), sim.WithSlots(slots))
			if v := sw.Violation(); v != "" {
				t.Fatalf("conformance violation across the shift: %s", v)
			}
			// Conservation: every offered packet is either delivered or
			// still buffered (the checker re-validates this per slot via
			// Backlog, so this is the end-of-run restatement).
			if got, want := int64(sw.Backlog()), sw.Offered()-sw.Delivered(); got != want {
				t.Fatalf("conservation broken: backlog %d, offered-delivered %d", got, want)
			}
			if sw.Delivered() == 0 {
				t.Fatal("nothing delivered")
			}
			if arch.OrderPreserving && reorder.Reordered() != 0 {
				t.Fatalf("%s reordered %d packets across the matrix shift", arch.Name, reorder.Reordered())
			}
		})
	}
}

// TestAdaptiveResizesAcrossShift pins that the shift is actually seen by
// the adaptive machinery: adaptive Sprinklers must complete at least one
// stripe resize when a sustained flash crowd rewrites the rate matrix.
func TestAdaptiveResizesAcrossShift(t *testing.T) {
	const (
		n     = 16
		load  = 0.8
		slots = 30000
	)
	rng := rand.New(rand.NewSource(1))
	m, err := experiment.PatternOpts(experiment.UniformTraffic, n, load, rng, nil)
	if err != nil {
		t.Fatal(err)
	}
	events, err := registry.BuildScenario("flashcrowd", registry.ScenarioConfig{
		N: n, Load: load, Base: m.Rows(),
		Warmup: slots / 5, Slots: slots,
		Rand: rng,
	}, map[string]any{"surge": 0.95, "duration": 0.5})
	if err != nil {
		t.Fatal(err)
	}
	sw, err := experiment.NewSwitchOpts(experiment.Sprinklers, m, 1, map[string]any{
		"adaptive": true, "adaptive-window": 1024, "adaptive-hold": 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	src := traffic.NewDynamic(m, events, 0, rand.New(rand.NewSource(2)))
	reorder := stats.NewReorder(n)
	sim.Run(sw, src, reorder, sim.WithWarmup(slots/5), sim.WithSlots(slots))
	type resizer interface{ Resizes() int64 }
	cs, ok := sw.(resizer)
	if !ok {
		t.Fatal("sprinklers switch does not report resizes")
	}
	if cs.Resizes() == 0 {
		t.Fatal("flash crowd triggered no stripe resizes — the adaptive path never engaged")
	}
	if reorder.Reordered() != 0 {
		t.Fatalf("adaptive sprinklers reordered %d packets during resizing", reorder.Reordered())
	}
}
