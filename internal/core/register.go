package core

import (
	"math/rand"

	"sprinklers/internal/registry"
	"sprinklers/internal/sim"
)

// sprinklersOptions is the shared option schema of both Sprinklers
// variants: stripe placement plus the measured-rate adaptive-resize knobs
// of Sec. 5 (each adaptive knob's 0 keeps the AdaptiveConfig default).
func sprinklersOptions() registry.Schema {
	return registry.Schema{
		registry.String("placement", PlacementOLS.String(),
			"primary-port generation: one orthogonal Latin square, or independent per-input permutations").
			OneOf(PlacementOLS.String(), PlacementIndependent.String()),
		registry.Bool("adaptive", false,
			"measure VOQ rates online and resize stripes with the Sec. 5 clearance protocol"),
		registry.Int("adaptive-window", 0,
			"rate-measurement window in slots; 0 = 4*N*N").AtLeast(0),
		registry.Float("adaptive-gamma", 0,
			"EWMA smoothing weight in (0, 1]; 0 = 0.3").Between(0, 1),
		registry.Int("adaptive-hold", 0,
			"consecutive windows that must agree before a resize; 0 = 2").AtLeast(0),
	}
}

func newSprinklers(sched Scheduler, cfg registry.ArchConfig) (sim.Switch, error) {
	c := Config{
		N:         cfg.N,
		Rates:     cfg.Rates,
		Scheduler: sched,
		Rand:      rand.New(rand.NewSource(cfg.Seed)),
	}
	if cfg.Options.String("placement") == PlacementIndependent.String() {
		c.Placement = PlacementIndependent
	}
	if cfg.Options.Bool("adaptive") {
		c.Adaptive = &AdaptiveConfig{
			Window:      sim.Slot(cfg.Options.Int("adaptive-window")),
			Gamma:       cfg.Options.Float("adaptive-gamma"),
			HoldWindows: cfg.Options.Int("adaptive-hold"),
		}
	}
	return New(c)
}

func init() {
	registry.Architectures.Register(registry.Architecture{
		Name:            "sprinklers",
		Description:     "randomized variable-size dyadic striping with gated Largest Stripe First scheduling",
		OrderPreserving: true,
		Twin:            "markov",
		Rank:            50,
		NeedsRates:      true, // Eq. 1 stripe sizing reads the rate matrix
		Options:         sprinklersOptions(),
		New: func(cfg registry.ArchConfig) (sim.Switch, error) {
			return newSprinklers(GatedLSF, cfg)
		},
	})
	registry.Architectures.Register(registry.Architecture{
		Name:            "sprinklers-greedy",
		Description:     "Sprinklers with the work-conserving greedy LSF scan (ablation); no ordering guarantee",
		OrderPreserving: false,
		Twin:            "markov",
		Rank:            60,
		NeedsRates:      true,
		Options:         sprinklersOptions(),
		New: func(cfg registry.ArchConfig) (sim.Switch, error) {
			return newSprinklers(GreedyLSF, cfg)
		},
	})
}
