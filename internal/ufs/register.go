package ufs

import (
	"sprinklers/internal/registry"
	"sprinklers/internal/sim"
)

func init() {
	registry.Architectures.Register(registry.Architecture{
		Name:            "ufs",
		Description:     "Uniform Frame Spreading: full-frame accumulation then one packet per intermediate port",
		OrderPreserving: true,
		Twin:            "markov",
		Rank:            20,
		New: func(cfg registry.ArchConfig) (sim.Switch, error) {
			return New(cfg.N), nil
		},
	})
}
