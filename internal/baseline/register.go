package baseline

import (
	"sprinklers/internal/registry"
	"sprinklers/internal/sim"
)

func init() {
	registry.Architectures.Register(registry.Architecture{
		Name:            "load-balanced",
		Description:     "baseline Birkhoff–von Neumann load-balanced switch; minimal delay, no ordering guarantee",
		OrderPreserving: false,
		Twin:            "markov", // the closed form models exactly this two-stage load-balanced fabric
		Rank:            10,
		New: func(cfg registry.ArchConfig) (sim.Switch, error) {
			return New(cfg.N), nil
		},
	})
}
