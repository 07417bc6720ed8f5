package pf

import (
	"fmt"

	"sprinklers/internal/registry"
	"sprinklers/internal/sim"
)

func init() {
	registry.Architectures.Register(registry.Architecture{
		Name:            "pf",
		Description:     "Padded Frames: full-frame spreading with threshold-triggered fake-cell padding",
		OrderPreserving: true,
		Twin:            "markov",
		Rank:            40,
		Options: registry.Schema{
			registry.Int("threshold", AdaptiveThreshold,
				"padding threshold in packets, at most N; 0 tracks the measured input load (adaptive)").AtLeast(0),
		},
		ValidateFor: func(n int, opts registry.Options) error {
			if th := opts.Int("threshold"); th > n {
				return fmt.Errorf("pf: threshold %d exceeds N=%d", th, n)
			}
			return nil
		},
		New: func(cfg registry.ArchConfig) (sim.Switch, error) {
			return New(cfg.N, cfg.Options.Int("threshold")), nil
		},
	})
}
