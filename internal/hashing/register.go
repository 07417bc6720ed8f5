package hashing

import (
	"math/rand"

	"sprinklers/internal/registry"
	"sprinklers/internal/sim"
)

func init() {
	registry.Architectures.Register(registry.Architecture{
		Name:            "tcp-hashing",
		Description:     "per-VOQ hashing onto one intermediate port (AFBR); ordered but unstable under concentrated patterns",
		OrderPreserving: true,
		// A whole VOQ's rate lands on one randomly chosen intermediate
		// port, so admissible patterns above ~1/3 load can oversubscribe a
		// port; the protocol tests cap the offered load accordingly.
		MaxStableLoad: 0.3,
		Rank:          70,
		New: func(cfg registry.ArchConfig) (sim.Switch, error) {
			return New(cfg.N, rand.New(rand.NewSource(cfg.Seed))), nil
		},
	})
}
