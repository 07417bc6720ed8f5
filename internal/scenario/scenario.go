// Package scenario is the dynamic-scenario engine: it turns a static
// simulation point into a time-varying one by replaying a registered event
// timeline — rate drift, flash crowds, hotspot migration, ingress-link
// failure and recovery, mid-run load steps — against a running switch while
// collecting the windowed time series (per-window delay, backlog,
// throughput, reordering) that shows how the architecture tracks the
// change. The paper's Sec. 3.5 adaptive stripe resizing only matters under
// exactly these conditions; a steady-state sweep cannot exercise it.
//
// Scenarios self-register in internal/registry under typed option schemas,
// like architectures and workloads, so experiment.Spec can name them and
// sweep -list can catalog them. The concrete builtins live in builtin.go;
// the replay driver here backs the scenario path of experiment.RunPoint.
package scenario

import (
	"context"
	"fmt"
	"math/rand"

	"sprinklers/internal/registry"
	"sprinklers/internal/sim"
	"sprinklers/internal/stats"
	"sprinklers/internal/traffic"
)

// Config parameterizes one scenario replay: a single (algorithm, workload,
// scenario) triple at one operating point.
type Config struct {
	// Algorithm is the registered architecture name; AlgOptions its option
	// assignment (nil selects every schema default).
	Algorithm  string
	AlgOptions map[string]any
	// Traffic is the registered workload supplying the base rate matrix;
	// TrafficOptions its option assignment.
	Traffic        string
	TrafficOptions map[string]any
	// Scenario is the registered scenario to replay; empty replays no
	// events, which reduces the run to a static point with windowed
	// metrics (byte-identical arrivals to the static runner, since an
	// empty timeline consumes no randomness).
	Scenario        string
	ScenarioOptions map[string]any
	// N is the switch size, Load the nominal per-input load, Burst the
	// mean burst length (0 = Bernoulli arrivals).
	N     int
	Load  float64
	Burst float64
	// Slots is the measured horizon; Warmup defaults to Slots/5.
	Slots  sim.Slot
	Warmup sim.Slot
	// Windows is the number of time-series windows the measured horizon is
	// split into; it defaults to 10 and must not exceed Slots.
	Windows int
	// Seed makes the whole replay — workload, scenario randomness, switch,
	// arrival process — deterministic.
	Seed int64
	// OnSlot, when non-nil, is invoked once per slot after the windowed
	// collector's own bookkeeping — the hook fault-injection harnesses use
	// to abort a replay at an exact slot.
	OnSlot func(sim.Slot)
	// Context, when non-nil, aborts the replay early once it is done
	// (sim.WithContext semantics). Run then returns its Err instead of a
	// partial, misleading Result.
	Context context.Context
}

// Result is one replay's outcome: the windowed trajectory plus the usual
// whole-run aggregates.
type Result struct {
	// Windows is the per-window time series, in order.
	Windows []stats.WindowPoint
	// Events is the validated, sorted timeline that was replayed.
	Events []registry.Event
	// Offered and Delivered count measured packets over the whole run.
	Offered, Delivered int64
	// Delay and Reorder aggregate the whole measured horizon.
	Delay   *stats.Delay
	Reorder *stats.Reorder
	// Switch is the simulated switch, still holding its final state
	// (backlog, stripe sizes, resize counters).
	Switch sim.Switch
}

// Run replays one scenario. Seeding mirrors the static experiment runner:
// a base-seed generator builds the workload matrix and then the scenario
// timeline, and the arrival process is seeded from Seed and Load — so a
// replay with an empty Scenario reproduces the static runner's packet
// trace exactly.
func Run(cfg Config) (*Result, error) {
	if cfg.N < 2 {
		return nil, fmt.Errorf("scenario: switch size %d < 2", cfg.N)
	}
	if cfg.Slots <= 0 {
		return nil, fmt.Errorf("scenario: slots %d <= 0", cfg.Slots)
	}
	if cfg.Warmup == 0 {
		cfg.Warmup = cfg.Slots / 5
	}
	if cfg.Windows == 0 {
		cfg.Windows = 10
	}
	if cfg.Windows < 1 || sim.Slot(cfg.Windows) > cfg.Slots {
		return nil, fmt.Errorf("scenario: %d windows do not fit %d measured slots", cfg.Windows, cfg.Slots)
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Context == nil {
		cfg.Context = context.Background()
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	rates, err := registry.WorkloadRates(cfg.Traffic, cfg.N, cfg.Load, rng, cfg.TrafficOptions)
	if err != nil {
		return nil, err
	}
	m := traffic.NewMatrix(rates)
	var events []registry.Event
	if cfg.Scenario != "" {
		events, err = registry.BuildScenario(cfg.Scenario, registry.ScenarioConfig{
			N: cfg.N, Load: cfg.Load, Burst: cfg.Burst, Base: m.Rows(),
			Warmup: cfg.Warmup, Slots: cfg.Slots, Rand: rng,
		}, cfg.ScenarioOptions)
		if err != nil {
			return nil, err
		}
	}
	// The switch is provisioned from the base matrix only: a static
	// architecture keeps whatever stripe placement the pre-event rates
	// imply, while an adaptive one re-measures and re-converges — the
	// comparison the scenario exists to make.
	sw, err := registry.NewArchitecture(cfg.Algorithm, cfg.N, m.Rows, cfg.Seed, cfg.AlgOptions)
	if err != nil {
		return nil, err
	}
	src := traffic.NewDynamic(m, events, cfg.Burst,
		rand.New(rand.NewSource(cfg.Seed+int64(cfg.Load*1e6))))
	windowed := stats.NewWindowed(cfg.N, cfg.Warmup, cfg.Slots, cfg.Windows)
	delay := &stats.Delay{}
	// The sampler thunk is bound once, outside the slot loop: Backlog is
	// only evaluated on window-closing slots, and the hot path stays free
	// of per-slot closure allocation.
	backlog := sw.Backlog
	onSlot := func(t sim.Slot) { windowed.OnSlot(t, backlog) }
	if extra := cfg.OnSlot; extra != nil {
		inner := onSlot
		onSlot = func(t sim.Slot) { inner(t); extra(t) }
	}
	runOpts := []sim.Option{
		sim.WithWarmup(cfg.Warmup), sim.WithSlots(cfg.Slots),
		sim.WithSlotHook(onSlot), sim.WithContext(cfg.Context),
	}
	offered, delivered := sim.Run(sw, windowed.WrapSource(src),
		stats.Multi{delay, windowed}, runOpts...)
	if err := cfg.Context.Err(); err != nil {
		return nil, err
	}
	return &Result{
		Windows:   windowed.Points(),
		Events:    events,
		Offered:   offered,
		Delivered: delivered,
		Delay:     delay,
		// The windowed collector already runs a whole-run reorder
		// detector; reuse it instead of charging every delivery twice.
		Reorder: windowed.ReorderDetector(),
		Switch:  sw,
	}, nil
}

// Recovery summarizes a trajectory's response to a disturbance: the
// pre-event baseline (the first window's mean delay), the worst window,
// whether the series ever left the recovery band max(1.5 x baseline,
// baseline + 1 slot) at all, and — if it did — when it settled back.
type Recovery struct {
	// Baseline is the first window's mean delay, in slots.
	Baseline float64
	// Peak is the largest window mean delay and PeakWindow its index.
	Peak       float64
	PeakWindow int
	// Disturbed reports whether the peak exceeded the recovery threshold.
	// A series that never left its baseline band — the best possible
	// outcome, e.g. an adaptive switch absorbing a crowd entirely — has
	// Disturbed false and carries no settling information; comparing
	// RecoveredWindow across series is only meaningful when both were
	// disturbed.
	Disturbed bool
	// Recovered reports whether a disturbed series settled back under the
	// threshold after its peak; RecoveredWindow is the first window that
	// did. Both are zero for undisturbed series.
	Recovered       bool
	RecoveredWindow int
}

// AnalyzeRecovery computes the Recovery summary of a trajectory.
func AnalyzeRecovery(ws []stats.WindowPoint) Recovery {
	var r Recovery
	if len(ws) == 0 {
		return r
	}
	r.Baseline = ws[0].MeanDelay
	for i, w := range ws {
		if w.MeanDelay > r.Peak {
			r.Peak = w.MeanDelay
			r.PeakWindow = i
		}
	}
	threshold := 1.5 * r.Baseline
	if min := r.Baseline + 1; threshold < min {
		threshold = min
	}
	if r.Peak <= threshold {
		return r // never left the baseline band; nothing to recover from
	}
	r.Disturbed = true
	// The settling scan starts after the peak: the peak window itself
	// crossed the threshold by construction, and counting it as recovery
	// would report a flatter (lower, later) peak as a slower recovery.
	for i := r.PeakWindow + 1; i < len(ws); i++ {
		if ws[i].MeanDelay <= threshold {
			r.Recovered = true
			r.RecoveredWindow = i
			break
		}
	}
	return r
}
