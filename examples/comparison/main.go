// Comparison: a fast version of the paper's Figure 6 — average delay versus
// load for all five switch architectures under uniform traffic at N=32.
// Run `go run ./cmd/sweep -builtin fig6` for the full-horizon version.
package main

import (
	"fmt"
	"os"

	"sprinklers/internal/experiment"
)

func main() {
	points, err := experiment.Sweep(experiment.Fig6Algorithms, experiment.Config{
		N:       32,
		Traffic: experiment.UniformTraffic,
		Loads:   []float64{0.1, 0.3, 0.5, 0.7, 0.9},
		Slots:   150_000,
		Seed:    1,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println("Figure 6 (reduced horizon): average delay (slots) vs load, uniform traffic, N=32")
	fmt.Println()
	experiment.RenderCurves(os.Stdout, points)
	fmt.Println(`
Reading the table against the paper's Figure 6:
  - the baseline load-balanced switch is the delay lower bound (but reorders);
  - UFS pays full-frame accumulation, worst at light load;
  - FOFF stays near the baseline, paying its resequencing buffer only at high load;
  - PF and Sprinklers hold a flat mid-range delay across all loads;
  - Sprinklers matches PF/FOFF while needing no padding and no resequencer.`)
}
