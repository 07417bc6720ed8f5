// Command scenario replays a registered dynamic scenario — a flash crowd,
// rate drift, hotspot migration, ingress-link failure, load steps — against
// one or more switch architectures and prints the per-window recovery
// trajectory: how delay, backlog and throughput evolve across the
// disturbance, and when each architecture settles back to its baseline.
// It is the quickest way to see the paper's Sec. 3.5 adaptive stripe
// resizing earn (or fail to earn) its keep against static placement.
//
// Usage:
//
//	scenario -scenario flashcrowd [-alg sprinklers]... [-traffic uniform]
//	         [-n 8] [-load 0.8] [-slots 20000] [-windows 20] [-replicas 3]
//	         [-sopt k=v]... [-topt k=v]... [-burst 0] [-seed 1]
//	         [-timeout 1m] [-out traj.jsonl] [-csv]
//	scenario -list
//
// -alg is repeatable and accepts the shared series syntax (registered name,
// optionally ":key=value,key=value"), e.g.
//
//	-alg sprinklers -alg "sprinklers:adaptive=true,adaptive-window=1024"
//
// which compares static and adaptive Sprinklers under the same replayed
// events. With no -alg the tool runs exactly that comparison. -sopt and
// -topt set scenario and workload options (repeatable key=value). The tool
// is a thin wrapper over the declarative study engine, so -out checkpoints
// and resumes exactly like cmd/sweep, and Ctrl-C (or -timeout) stops it
// cleanly with the recorded prefix rendered and exit status 2.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"sprinklers/internal/experiment"
	"sprinklers/internal/registry"
	"sprinklers/internal/sim"
)

// listFlag collects a repeatable string flag.
type listFlag []string

func (l *listFlag) String() string { return strings.Join(*l, ",") }

func (l *listFlag) Set(v string) error {
	*l = append(*l, v)
	return nil
}

func main() {
	var algs listFlag
	flag.Var(&algs, "alg", "architecture series, repeatable: name or name:key=value,key=value")
	sopts := registry.OptionFlag{}
	flag.Var(sopts, "sopt", "scenario option, repeatable key=value")
	topts := registry.OptionFlag{}
	flag.Var(topts, "topt", "workload option, repeatable key=value")
	scenarioName := flag.String("scenario", "", "registered scenario to replay: "+strings.Join(registry.ScenarioNames(), ", "))
	trafficKind := flag.String("traffic", "uniform", "base workload the scenario perturbs")
	n := flag.Int("n", 8, "switch size (power of two)")
	load := flag.Float64("load", 0.8, "nominal per-input load in (0, 1)")
	slots := flag.Int64("slots", 20_000, "measured slots per replica")
	warmup := flag.Int64("warmup", 0, "warmup slots (default slots/5)")
	windows := flag.Int("windows", 20, "time-series windows over the measured horizon")
	replicas := flag.Int("replicas", 3, "independently-seeded replicas, aggregated per window")
	burst := flag.Float64("burst", 0, "mean on/off burst length; 0 = Bernoulli arrivals")
	seed := flag.Int64("seed", 1, "study base seed")
	timeout := flag.Duration("timeout", 0, "cancel the replay after this duration (0 = no limit)")
	out := flag.String("out", "", "JSONL checkpoint file; resumed if it exists")
	csvOut := flag.Bool("csv", false, "emit the trajectory as CSV instead of text tables")
	quiet := flag.Bool("quiet", false, "suppress live progress on stderr")
	list := flag.Bool("list", false, "list registered scenarios (with architectures and workloads), then exit")
	flag.Parse()

	if *list {
		registry.WriteCatalog(os.Stdout)
		return
	}
	if *scenarioName == "" {
		fatal(fmt.Errorf("-scenario is required (registered: %s)", strings.Join(registry.ScenarioNames(), ", ")))
	}
	var algSpecs []experiment.AlgorithmSpec
	if len(algs) == 0 {
		// The default comparison the tool exists for: Sprinklers provisioned
		// once from the pre-event rates versus Sprinklers re-measuring and
		// resizing online (Sec. 3.5), under identical replayed events — the
		// same two series the flashcrowd builtin sweeps.
		algSpecs = []experiment.AlgorithmSpec{
			{Name: experiment.Sprinklers},
			experiment.AdaptiveSprinklers(),
		}
	} else {
		parsed, err := experiment.ParseAlgorithmSeries(algs)
		if err != nil {
			fatal(err)
		}
		algSpecs = parsed
	}

	spec := experiment.Spec{
		Name:       fmt.Sprintf("scenario-%s", *scenarioName),
		Kind:       experiment.SimStudy,
		Algorithms: algSpecs,
		Traffic: []experiment.TrafficSpec{{
			Name: experiment.TrafficKind(*trafficKind), Options: registry.Options(topts),
		}},
		Scenarios: []experiment.ScenarioSpec{{
			Name: experiment.ScenarioKind(*scenarioName), Options: registry.Options(sopts),
		}},
		Loads:    []float64{*load},
		Sizes:    []int{*n},
		Bursts:   []float64{*burst},
		Replicas: *replicas,
		Slots:    sim.Slot(*slots),
		Warmup:   sim.Slot(*warmup),
		Windows:  *windows,
		Seed:     *seed,
	}
	spec = spec.WithDefaults()
	if err := spec.Validate(); err != nil {
		fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	cfg := experiment.StudyConfig{ResultsPath: *out}
	if !*quiet {
		cfg.Progress = func(done, total int, r experiment.PointResult) {
			fmt.Fprintf(os.Stderr, "[%d/%d] %s  mean-delay %.1f\n", done, total, r.PointKey, r.MeanDelay)
		}
	}
	results, err := experiment.RunStudy(ctx, spec, cfg)
	canceled := experiment.IsCancellation(err)
	if err != nil && !canceled {
		fatal(err)
	}
	if canceled {
		fmt.Fprintf(os.Stderr, "scenario: %s\n",
			experiment.CancelMessage(len(results), spec.NumPoints(), *out, false))
	}

	if *csvOut {
		if err := experiment.RenderTrajectoryCSV(os.Stdout, results); err != nil {
			fatal(err)
		}
	} else {
		fmt.Printf("scenario %s: recovery trajectory, %d replicas/point, %d measured slots, %d windows\n\n",
			*scenarioName, spec.Replicas, spec.Slots, spec.Windows)
		experiment.RenderTrajectory(os.Stdout, results)
		fmt.Println()
		experiment.RenderStudyDetail(os.Stdout, results)
	}
	if canceled {
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "scenario:", err)
	os.Exit(1)
}
