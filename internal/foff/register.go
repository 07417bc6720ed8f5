package foff

import (
	"sprinklers/internal/registry"
	"sprinklers/internal/sim"
)

func init() {
	registry.Architectures.Register(registry.Architecture{
		Name:            "foff",
		Description:     "Full Ordered Frames First: deterministic striping with output resequencers",
		OrderPreserving: true, // the embedded resequencer restores order
		Twin:            "markov",
		Rank:            30,
		New: func(cfg registry.ArchConfig) (sim.Switch, error) {
			return New(cfg.N), nil
		},
	})
}
