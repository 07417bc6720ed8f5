package cms

import (
	"sprinklers/internal/registry"
	"sprinklers/internal/sim"
)

func init() {
	registry.Architectures.Register(registry.Architecture{
		Name:            "cms",
		Description:     "Concurrent Matching Switch: per-port token matching, frame-pipelined and reordering-free",
		OrderPreserving: true,
		Twin:            "markov",
		Rank:            80,
		New: func(cfg registry.ArchConfig) (sim.Switch, error) {
			return New(cfg.N), nil
		},
	})
}
