// Flashcrowd: dynamic scenarios in one page. A Spec may name registered
// scenarios — here a flash crowd that aims 95% of one output's capacity at
// it mid-run — and every grid point then replays the scenario's event
// timeline against the running switch while windowed instruments record the
// per-window trajectory (mean/p99 delay, backlog, throughput, reordering).
// The comparison below is the paper's Sec. 3.5 story: Sprinklers
// provisioned once from pre-crowd rates versus Sprinklers re-measuring VOQ
// rates online and resizing stripes through the clearance protocol.
package main

import (
	"context"
	"fmt"
	"os"

	"sprinklers/internal/experiment"
	"sprinklers/internal/registry"
)

func main() {
	spec := experiment.Spec{
		Name: "example-flashcrowd",
		Algorithms: []experiment.AlgorithmSpec{
			{Name: experiment.Sprinklers},
			experiment.AdaptiveSprinklers(),
		},
		Traffic: experiment.Traffics(experiment.UniformTraffic),
		Scenarios: []experiment.ScenarioSpec{
			{Name: experiment.FlashCrowd, Options: registry.Options{
				"surge": 0.95, "duration": 0.3,
			}},
		},
		Loads:    []float64{0.8},
		Sizes:    []int{16},
		Replicas: 3,
		Slots:    20_000,
		Windows:  10,
		Seed:     1,
	}

	results, err := experiment.RunStudy(context.Background(), spec, experiment.StudyConfig{})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Println("Flash crowd at 25% of the horizon, 30% long: per-window mean delay")
	fmt.Println()
	experiment.RenderTrajectory(os.Stdout, results)

	fmt.Println()
	for _, r := range results {
		rec := experiment.AnalyzeRecovery(r.Windows)
		verdict := "never left its baseline band"
		switch {
		case rec.Disturbed && rec.Recovered:
			verdict = fmt.Sprintf("disturbed, settled by window %d", rec.RecoveredWindow)
		case rec.Disturbed:
			verdict = "disturbed, not settled within the horizon"
		}
		fmt.Printf("%-20s baseline %.1f  peak %.1f  %s\n",
			r.Algorithm, rec.Baseline, rec.Peak, verdict)
	}
}
