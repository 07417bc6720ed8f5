// Command sprinklersim runs a single switch simulation with full control
// over the architecture, traffic pattern, load, burstiness and horizon, and
// reports delay, throughput and reordering statistics. It is the
// general-purpose driver; `sweep -builtin fig5|table1|fig6|fig7` runs the
// specific experiments of the paper.
//
// Usage:
//
//	sprinklersim -alg sprinklers -traffic uniform -n 32 -load 0.9 \
//	             -slots 1000000 [-burst 16] [-seed 1] [-scheduler gated|greedy]
//	             [-aopt key=value]...
//	sprinklersim -scenario flashcrowd [-sopt k=v]... [-aopt adaptive=true]... \
//	             [-windows 10] ...
//	sprinklersim -list
//
// The architecture, traffic and scenario names come from the shared
// registry; -list prints every registered name with its option schema.
// With -scenario the run replays the named dynamic scenario (the workload
// supplies the base rate matrix it perturbs) and reports the per-window
// recovery trajectory alongside the usual aggregates.
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"

	"sprinklers/internal/core"
	"sprinklers/internal/experiment"
	"sprinklers/internal/registry"
	"sprinklers/internal/scenario"
	"sprinklers/internal/sim"
	"sprinklers/internal/stats"
	"sprinklers/internal/traffic"
)

func main() {
	alg := flag.String("alg", "sprinklers",
		"architecture: "+strings.Join(registry.ArchitectureNames(), ", "))
	trafficKind := flag.String("traffic", "uniform",
		"traffic pattern: "+strings.Join(registry.WorkloadNames(), ", "))
	n := flag.Int("n", 32, "switch size (power of two)")
	load := flag.Float64("load", 0.9, "per-input load in (0, 1)")
	slots := flag.Int64("slots", 1_000_000, "measured slots")
	warmup := flag.Int64("warmup", 0, "warmup slots (default slots/5)")
	seed := flag.Int64("seed", 1, "random seed")
	burst := flag.Float64("burst", 0, "mean on/off burst length; 0 = Bernoulli arrivals as in the paper")
	scheduler := flag.String("scheduler", "gated", "sprinklers input scheduler: gated (Sec. 3.4 LSF) or greedy (ablation)")
	scenarioName := flag.String("scenario", "", "replay a registered dynamic scenario: "+strings.Join(registry.ScenarioNames(), ", "))
	sopts := registry.OptionFlag{}
	flag.Var(sopts, "sopt", "scenario option, repeatable key=value")
	aopts := registry.OptionFlag{}
	flag.Var(aopts, "aopt", "architecture option, repeatable key=value (e.g. adaptive=true); see -list for schemas")
	windows := flag.Int("windows", 10, "time-series windows for -scenario runs")
	timeout := flag.Duration("timeout", 0, "cancel the run after this duration (0 = no limit)")
	list := flag.Bool("list", false, "list registered architectures, workloads and scenarios with their options, then exit")
	flag.Parse()

	// Ctrl-C and -timeout share one context; a canceled plain run still
	// prints the statistics gathered so far (marked partial), a canceled
	// scenario replay stops with exit status 2.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *list {
		registry.WriteCatalog(os.Stdout)
		return
	}

	if *n < 2 || *n&(*n-1) != 0 {
		fatal(fmt.Errorf("-n %d is not a power of two >= 2", *n))
	}
	if !(*load > 0 && *load < 1) {
		fatal(fmt.Errorf("-load %v outside (0, 1)", *load))
	}
	if *burst != 0 && *burst < 1 {
		fatal(fmt.Errorf("-burst %v invalid (0 = Bernoulli, otherwise mean burst length >= 1)", *burst))
	}
	if *slots <= 0 {
		fatal(fmt.Errorf("-slots %d <= 0", *slots))
	}
	if *warmup < 0 {
		fatal(fmt.Errorf("-warmup %d < 0", *warmup))
	}
	// -scheduler selects between the gated LSF scheduler of Sec. 3.4 and the
	// greedy ablation variant; it is only meaningful for the Sprinklers
	// architecture, where it maps onto the two experiment algorithms.
	algorithm := experiment.Algorithm(*alg)
	switch *scheduler {
	case "gated":
		// The paper's default; sprinklers-greedy stays greedy if asked for
		// explicitly via -alg.
	case "greedy":
		switch algorithm {
		case experiment.Sprinklers, experiment.SprinklersGreedy:
			algorithm = experiment.SprinklersGreedy
		default:
			fatal(fmt.Errorf("-scheduler greedy only applies to -alg sprinklers (got %q)", *alg))
		}
	default:
		fatal(fmt.Errorf("-scheduler %q invalid: want gated or greedy", *scheduler))
	}

	if *scenarioName != "" {
		runScenario(ctx, string(algorithm), aopts, *trafficKind, *scenarioName, sopts,
			*n, *load, *burst, *slots, *warmup, *windows, *seed)
		return
	}

	rng := rand.New(rand.NewSource(*seed))
	m, err := experiment.Pattern(experiment.TrafficKind(*trafficKind), *n, *load, rng)
	if err != nil {
		fatal(err)
	}
	sw, err := experiment.NewSwitchOpts(algorithm, m, *seed, aopts)
	if err != nil {
		fatal(err)
	}
	var src sim.Source
	if *burst > 0 {
		src = traffic.NewOnOff(m, *burst, rand.New(rand.NewSource(*seed+1)))
	} else {
		src = traffic.NewBernoulli(m, rand.New(rand.NewSource(*seed+1)))
	}

	delay := &stats.Delay{}
	reorder := stats.NewReorder(*n)
	w := sim.Slot(*warmup)
	if w == 0 {
		w = sim.Slot(*slots) / 5
	}
	var executed sim.Slot
	offered, delivered := sim.Run(sw, src, stats.Multi{delay, reorder},
		sim.WithWarmup(w), sim.WithSlots(sim.Slot(*slots)),
		sim.WithSlotHook(func(t sim.Slot) { executed = t + 1 }),
		sim.WithContext(ctx))
	partial := ctx.Err() != nil

	fmt.Printf("architecture : %s\n", algorithm)
	fmt.Printf("traffic      : %s, N=%d, load=%.3f", *trafficKind, *n, *load)
	if *burst > 0 {
		fmt.Printf(", bursty (mean burst %.0f)", *burst)
	}
	fmt.Println()
	if partial {
		fmt.Printf("horizon      : PARTIAL — canceled after %d of %d slots; statistics cover the executed prefix\n",
			executed, sim.Slot(*slots)+w)
	} else {
		fmt.Printf("horizon      : %d measured slots (+%d warmup)\n", *slots, w)
	}
	fmt.Printf("offered      : %d packets\n", offered)
	fmt.Printf("delivered    : %d packets (throughput %.4f)\n", delivered,
		float64(delivered)/float64(max64(offered, 1)))
	fmt.Printf("backlog      : %d packets left in switch\n", sw.Backlog())
	fmt.Printf("delay        : mean %.1f  p50≤%d  p99≤%d  max %d slots\n",
		delay.Mean(), delay.Percentile(50), delay.Percentile(99), delay.Max())
	fmt.Printf("reordered    : %d packets (%.5f%%), max seq gap %d\n",
		reorder.Reordered(), 100*reorder.Fraction(), reorder.MaxGap())
	if cs, ok := sw.(*core.Switch); ok {
		b := cs.DelayBreakdown()
		fmt.Printf("breakdown    : accumulation %.1f + transit %.1f slots (stripe fill vs switch)\n",
			b.Accumulation, b.Transit)
		if cs.Resizes() > 0 {
			fmt.Printf("resizes      : %d stripe-size changes\n", cs.Resizes())
		}
	}
	if partial {
		os.Exit(2)
	}
}

// runScenario replays a dynamic scenario over a single seeded run and
// prints the per-window recovery trajectory with the usual aggregates.
func runScenario(ctx context.Context, alg string, aopts map[string]any, trafficKind, scenarioName string, sopts map[string]any,
	n int, load, burst float64, slots, warmup int64, windows int, seed int64) {
	res, err := scenario.Run(scenario.Config{
		Algorithm:       alg,
		AlgOptions:      aopts,
		Traffic:         trafficKind,
		Scenario:        scenarioName,
		ScenarioOptions: sopts,
		N:               n,
		Load:            load,
		Burst:           burst,
		Slots:           sim.Slot(slots),
		Warmup:          sim.Slot(warmup),
		Windows:         windows,
		Seed:            seed,
		Context:         ctx,
	})
	if experiment.IsCancellation(err) {
		fmt.Fprintln(os.Stderr, "sprinklersim: scenario replay canceled before completion")
		os.Exit(2)
	}
	if err != nil {
		fatal(err)
	}
	fmt.Printf("architecture : %s\n", alg)
	fmt.Printf("traffic      : %s, N=%d, load=%.3f", trafficKind, n, load)
	if burst > 0 {
		fmt.Printf(", bursty (mean burst %.0f)", burst)
	}
	fmt.Println()
	fmt.Printf("scenario     : %s (%d events)\n", scenarioName, len(res.Events))
	fmt.Printf("offered      : %d packets\n", res.Offered)
	fmt.Printf("delivered    : %d packets (throughput %.4f)\n", res.Delivered,
		float64(res.Delivered)/float64(max64(res.Offered, 1)))
	fmt.Printf("backlog      : %d packets left in switch\n", res.Switch.Backlog())
	fmt.Printf("delay        : mean %.1f  p50≤%d  p99≤%d  max %d slots\n",
		res.Delay.Mean(), res.Delay.Percentile(50), res.Delay.Percentile(99), res.Delay.Max())
	fmt.Printf("reordered    : %d packets (%.5f%%), max seq gap %d\n",
		res.Reorder.Reordered(), 100*res.Reorder.Fraction(), res.Reorder.MaxGap())
	if cs, ok := res.Switch.(*core.Switch); ok {
		if cs.Resizes() > 0 {
			fmt.Printf("resizes      : %d stripe-size changes\n", cs.Resizes())
		}
		fmt.Printf("stripes      : %s\n", formatHistogram(cs.StripeSizeHistogram()))
	}
	fmt.Printf("\n%-6s %-16s %10s %12s %10s %10s %10s\n",
		"window", "slots", "mean-delay", "p99-delay(≤)", "thruput", "backlog", "reordered")
	for _, w := range res.Windows {
		fmt.Printf("%-6d %-16s %10.1f %12.0f %10.4f %10.0f %10d\n",
			w.Window, fmt.Sprintf("[%d,%d)", w.Start, w.End),
			w.MeanDelay, w.P99Delay, w.Throughput, w.Backlog, w.Reordered)
	}
	rec := scenario.AnalyzeRecovery(res.Windows)
	fmt.Printf("\nrecovery     : baseline %.1f  peak %.1f (window %d)",
		rec.Baseline, rec.Peak, rec.PeakWindow)
	switch {
	case !rec.Disturbed:
		fmt.Println("  no significant excursion")
	case rec.Recovered:
		fmt.Printf("  settled by window %d\n", rec.RecoveredWindow)
	default:
		fmt.Println("  not settled within the horizon")
	}
}

// formatHistogram renders a stripe-size histogram as "size x count" terms
// in ascending size order, e.g. "1x224 2x24 4x8".
func formatHistogram(h map[int]int) string {
	sizes := make([]int, 0, len(h))
	for s := range h {
		sizes = append(sizes, s)
	}
	sort.Ints(sizes)
	parts := make([]string, len(sizes))
	for i, s := range sizes {
		parts[i] = fmt.Sprintf("%dx%d", s, h[s])
	}
	return strings.Join(parts, " ")
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sprinklersim:", err)
	os.Exit(1)
}
