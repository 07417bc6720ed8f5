// Package experiment runs the paper's simulation study (Sec. 6). A Spec
// declares a study as data: architecture, workload and scenario series
// crossed with loads, switch sizes and burstiness, with independently
// seeded replicas per point. RunStudy runs it, with a resumable checkpoint,
// an optional result cache and a hook for cluster dispatch, through one
// executor for every kind: a dense or analytic study is one batch of points,
// and an adaptive study (adaptive.go) adds refinement batches after its
// seed grid. The Render* functions print its results: the delay-versus-load
// tables of Figures 6 and 7 (BuiltinSpec "fig6", "fig7"), windowed
// trajectories, and the Fig. 5 and Table 1 analytic tables. RunPoint
// measures one simulated point.
//
// Architectures and workloads are resolved through internal/registry, so
// anything registered there — including architectures registered by
// downstream programs — can be named in a Spec or constructed by NewSwitch
// with per-instance options validated against the registered schema.
package experiment

import (
	"context"
	"math/rand"

	_ "sprinklers/internal/arch" // link every built-in architecture and workload
	"sprinklers/internal/registry"
	"sprinklers/internal/scenario"
	"sprinklers/internal/sim"
	"sprinklers/internal/stats"
	"sprinklers/internal/traffic"
)

// Algorithm names a switch architecture under test.
type Algorithm string

// The architectures compared in the paper's evaluation, plus the greedy
// Sprinklers variant and TCP hashing used by the ablation studies. These
// constants are conveniences; any name registered in internal/registry is
// equally valid.
const (
	LoadBalanced     Algorithm = "load-balanced" // baseline, no ordering guarantee
	UFS              Algorithm = "ufs"
	FOFF             Algorithm = "foff"
	PF               Algorithm = "pf"
	Sprinklers       Algorithm = "sprinklers"
	SprinklersGreedy Algorithm = "sprinklers-greedy"
	TCPHashing       Algorithm = "tcp-hashing"
	CMS              Algorithm = "cms"
)

// Fig6Algorithms is the set of curves in Figures 6 and 7, in the paper's
// legend order.
var Fig6Algorithms = []Algorithm{LoadBalanced, UFS, FOFF, PF, Sprinklers}

// AllAlgorithms lists every registered architecture in canonical (registry
// rank) order. It is a function, not a frozen slice, so architectures
// registered after this package initializes — e.g. by a downstream program
// extending the harness — are included.
func AllAlgorithms() []Algorithm {
	names := registry.ArchitectureNames()
	out := make([]Algorithm, len(names))
	for i, n := range names {
		out[i] = Algorithm(n)
	}
	return out
}

// OrderPreserving reports whether the architecture guarantees in-order
// delivery, per its registry metadata (FOFF counts: its embedded
// resequencer restores order). Unregistered names report true, the safe
// default for the reordering assertions built on this.
func (a Algorithm) OrderPreserving() bool {
	if arch, ok := registry.LookupArchitecture(string(a)); ok {
		return arch.OrderPreserving
	}
	return true
}

// NewSwitch constructs the named architecture for rate matrix m with every
// option at its schema default. The rate-aware architectures size
// themselves from m, matching the paper's assumption that the (long-term)
// VOQ rates are known to the switch.
func NewSwitch(alg Algorithm, m *traffic.Matrix, seed int64) (sim.Switch, error) {
	return NewSwitchOpts(alg, m, seed, nil)
}

// NewSwitchOpts is NewSwitch with an explicit option assignment, validated
// against the architecture's registered schema (nil selects every default).
func NewSwitchOpts(alg Algorithm, m *traffic.Matrix, seed int64, opts map[string]any) (sim.Switch, error) {
	// Rows is a deep copy — the switch must not alias matrix state — and
	// the registry invokes it only for architectures that consume rates.
	return registry.NewArchitecture(string(alg), m.N(), m.Rows, seed, opts)
}

// TrafficKind selects one of the evaluation workload shapes.
type TrafficKind string

// Workload shapes. Uniform and Diagonal are the two used by Figs. 6 and 7;
// the others extend the study. As with algorithms, any registered workload
// name is valid.
const (
	UniformTraffic     TrafficKind = "uniform"
	DiagonalTraffic    TrafficKind = "diagonal"
	HotspotTraffic     TrafficKind = "hotspot"
	ZipfTraffic        TrafficKind = "zipf"
	PermutationTraffic TrafficKind = "permutation"
)

// ScenarioKind selects one of the registered dynamic scenarios.
type ScenarioKind string

// The built-in dynamic scenarios (internal/scenario). As with algorithms,
// any name registered in internal/registry is equally valid.
const (
	FlashCrowd   ScenarioKind = "flashcrowd"
	RateDrift    ScenarioKind = "ratedrift"
	HotspotShift ScenarioKind = "hotspotshift"
	LinkFail     ScenarioKind = "linkfail"
	LoadStep     ScenarioKind = "loadstep"
)

// Pattern builds the rate matrix for the named workload at the given load
// with every option at its schema default.
func Pattern(kind TrafficKind, n int, load float64, rng *rand.Rand) (*traffic.Matrix, error) {
	return PatternOpts(kind, n, load, rng, nil)
}

// PatternOpts is Pattern with an explicit option assignment, validated
// against the workload's registered schema (nil selects every default).
func PatternOpts(kind TrafficKind, n int, load float64, rng *rand.Rand, opts map[string]any) (*traffic.Matrix, error) {
	rates, err := registry.WorkloadRates(string(kind), n, load, rng, opts)
	if err != nil {
		return nil, err
	}
	return traffic.NewMatrix(rates), nil
}

// Point is one measured point of a delay-versus-load curve.
type Point struct {
	Algorithm  Algorithm
	Traffic    TrafficKind
	Scenario   ScenarioKind // dynamic scenario replayed, "" for static points
	N          int
	Load       float64
	MeanDelay  float64 // slots
	P99Delay   float64 // slots (upper estimate)
	MaxDelay   float64
	Throughput float64 // delivered / offered over the measured window
	Reordered  int64   // out-of-order deliveries observed
	Delivered  int64
	// Windows is the per-window time series, present when the point ran
	// with windowed collection (Config.Windows > 0).
	Windows []stats.WindowPoint
}

// Config parameterizes one simulated point (RunPoint).
type Config struct {
	N       int
	Traffic TrafficKind
	// Slots is the measured horizon per point; Warmup defaults to
	// Slots/5.
	Slots  sim.Slot
	Warmup sim.Slot
	Seed   int64
	// Burst selects the arrival process: 0 runs Bernoulli arrivals as in
	// the paper, b >= 1 runs on/off arrivals with mean burst length b.
	Burst float64
	// AlgOptions and TrafficOptions parameterize the architecture and the
	// workload beyond name selection; nil selects every schema default.
	AlgOptions     registry.Options
	TrafficOptions registry.Options
	// Scenario, when non-empty, replays the named dynamic scenario over
	// the point: the workload supplies the base rate matrix, the scenario
	// perturbs it mid-run. ScenarioOptions parameterizes it.
	Scenario        ScenarioKind
	ScenarioOptions registry.Options
	// Windows, when > 0, splits the measured horizon into that many
	// time-series windows recorded on the resulting Point. Scenario
	// points default to 10 windows.
	Windows int
	// OnSlot, when non-nil, is invoked once per simulated slot. It exists
	// for fault-injection harnesses that need to act at an exact slot
	// (e.g. crash a cluster worker at slot N); leave it nil on hot paths.
	OnSlot func(sim.Slot)
	// Context, when non-nil, aborts an in-flight point early once it is
	// done. RunPoint then returns its Err instead of a partial
	// measurement. RunStudy passes its own context here, which is what
	// makes a long replica — minutes at large N — stop within milliseconds
	// of a cancellation instead of running to its horizon.
	Context context.Context
}

func (c Config) withDefaults() Config {
	if c.Warmup == 0 {
		c.Warmup = c.Slots / 5
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Context == nil {
		c.Context = context.Background()
	}
	return c
}

// RunPoint measures one (algorithm, load) point. With a Scenario (or
// Windows > 0) the point runs through the dynamic-scenario engine, which
// uses the same seeding scheme, so a windowed static point reproduces the
// plain path's packet trace exactly.
func RunPoint(alg Algorithm, cfg Config, load float64) (Point, error) {
	cfg = cfg.withDefaults()
	if cfg.Scenario != "" || cfg.Windows > 0 {
		return runScenarioPoint(alg, cfg, load)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	m, err := PatternOpts(cfg.Traffic, cfg.N, load, rng, cfg.TrafficOptions)
	if err != nil {
		return Point{}, err
	}
	sw, err := NewSwitchOpts(alg, m, cfg.Seed, cfg.AlgOptions)
	if err != nil {
		return Point{}, err
	}
	var src sim.Source
	if cfg.Burst > 0 {
		src = traffic.NewOnOff(m, cfg.Burst, rand.New(rand.NewSource(cfg.Seed+int64(load*1e6))))
	} else {
		src = traffic.NewBernoulli(m, rand.New(rand.NewSource(cfg.Seed+int64(load*1e6))))
	}
	delay := &stats.Delay{}
	reorder := stats.NewReorder(cfg.N)
	runOpts := []sim.Option{
		sim.WithWarmup(cfg.Warmup), sim.WithSlots(cfg.Slots), sim.WithContext(cfg.Context),
	}
	if cfg.OnSlot != nil {
		runOpts = append(runOpts, sim.WithSlotHook(cfg.OnSlot))
	}
	offered, delivered := sim.Run(sw, src, stats.Multi{delay, reorder}, runOpts...)
	if err := cfg.Context.Err(); err != nil {
		return Point{}, err
	}
	p := Point{
		Algorithm: alg,
		Traffic:   cfg.Traffic,
		N:         cfg.N,
		Load:      load,
		MeanDelay: delay.Mean(),
		P99Delay:  float64(delay.Percentile(99)),
		MaxDelay:  float64(delay.Max()),
		Reordered: reorder.Reordered(),
		Delivered: delivered,
	}
	if offered > 0 {
		p.Throughput = float64(delivered) / float64(offered)
	}
	return p, nil
}

// runScenarioPoint measures one point through the dynamic-scenario engine,
// with windowed time-series collection.
func runScenarioPoint(alg Algorithm, cfg Config, load float64) (Point, error) {
	r, err := scenario.Run(scenario.Config{
		Algorithm:       string(alg),
		AlgOptions:      cfg.AlgOptions,
		Traffic:         string(cfg.Traffic),
		TrafficOptions:  cfg.TrafficOptions,
		Scenario:        string(cfg.Scenario),
		ScenarioOptions: cfg.ScenarioOptions,
		N:               cfg.N,
		Load:            load,
		Burst:           cfg.Burst,
		Slots:           cfg.Slots,
		Warmup:          cfg.Warmup,
		Windows:         cfg.Windows,
		Seed:            cfg.Seed,
		OnSlot:          cfg.OnSlot,
		Context:         cfg.Context,
	})
	if err != nil {
		return Point{}, err
	}
	p := Point{
		Algorithm: alg,
		Traffic:   cfg.Traffic,
		Scenario:  cfg.Scenario,
		N:         cfg.N,
		Load:      load,
		MeanDelay: r.Delay.Mean(),
		P99Delay:  float64(r.Delay.Percentile(99)),
		MaxDelay:  float64(r.Delay.Max()),
		Reordered: r.Reorder.Reordered(),
		Delivered: r.Delivered,
		Windows:   r.Windows,
	}
	if r.Offered > 0 {
		p.Throughput = float64(r.Delivered) / float64(r.Offered)
	}
	return p, nil
}

// PaperLoads is the load grid of Figures 6 and 7 (the top point is pulled
// to 0.98 because several schemes saturate at 1.0 and their delay would be
// unbounded in any finite simulation).
var PaperLoads = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.98}
