package traffic

import (
	"math/rand"

	"sprinklers/internal/registry"
)

// The workload registrations. Each constructor builds its pattern through
// the exported Matrix constructors and hands back the deep-copied rate
// rows, so registry consumers never alias package state.
func init() {
	registry.Workloads.Register(registry.Workload{
		Name:        "uniform",
		Description: "every input spreads its load evenly over all outputs (Sec. 6, Fig. 6)",
		Rank:        10,
		Rates: func(n int, load float64, rng *rand.Rand, opts registry.Options) ([][]float64, error) {
			return Uniform(n, load).Rows(), nil
		},
	})
	registry.Workloads.Register(registry.Workload{
		Name:        "diagonal",
		Description: "half of each input's load on output j=i, the rest spread evenly (Sec. 6, Fig. 7)",
		Rank:        20,
		Rates: func(n int, load float64, rng *rand.Rand, opts registry.Options) ([][]float64, error) {
			return Diagonal(n, load).Rows(), nil
		},
	})
	registry.Workloads.Register(registry.Workload{
		Name:        "hotspot",
		Description: "a tunable fraction of each input's load aimed at output (i+1) mod N, rest uniform",
		Rank:        30,
		Options: registry.Schema{
			registry.Float("fraction", 0.5,
				"fraction of each input's load aimed at its hotspot output").Between(0, 1),
		},
		Rates: func(n int, load float64, rng *rand.Rand, opts registry.Options) ([][]float64, error) {
			return Hotspot(n, load, opts.Float("fraction")).Rows(), nil
		},
	})
	registry.Workloads.Register(registry.Workload{
		Name:        "zipf",
		Description: "heavy-tailed Zipf split over outputs ranked by (j-i) mod N; stresses rate-proportional striping",
		Rank:        40,
		Options: registry.Schema{
			registry.Float("exponent", 1.0,
				"Zipf popularity exponent; larger concentrates load on fewer outputs").Between(0, 16),
		},
		Rates: func(n int, load float64, rng *rand.Rand, opts registry.Options) ([][]float64, error) {
			return Zipf(n, load, opts.Float("exponent")).Rows(), nil
		},
	})
	registry.Workloads.Register(registry.Workload{
		Name:        "permutation",
		Description: "each input sends its whole load to one output of a seeded random permutation",
		Rank:        50,
		Rates: func(n int, load float64, rng *rand.Rand, opts registry.Options) ([][]float64, error) {
			return Permutation(rng.Perm(n), load).Rows(), nil
		},
	})
}
