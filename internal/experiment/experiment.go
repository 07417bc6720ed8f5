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
	"fmt"
	"math/rand"
	"sync"

	_ "sprinklers/internal/arch" // link every built-in architecture, workload and scenario
	"sprinklers/internal/registry"
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
	names := registry.Architectures.Names()
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
	if arch, ok := registry.Architectures.Lookup(string(a)); ok {
		return arch.OrderPreserving
	}
	return true
}

// NewSwitchOpts constructs the named architecture for rate matrix m with an
// explicit option assignment, validated against the architecture's
// registered schema (nil selects every default). The rate-aware
// architectures size themselves from m, matching the paper's assumption
// that the (long-term) VOQ rates are known to the switch.
func NewSwitchOpts(alg Algorithm, m *traffic.Matrix, seed int64, opts map[string]any) (sim.Switch, error) {
	// Rows is a deep copy — the switch must not alias matrix state — and
	// the registry invokes it only for architectures that consume rates.
	return registry.NewArchitecture(string(alg), m.N(), m.Rows, seed, opts)
}

// TrafficKind selects one of the evaluation workload shapes.
type TrafficKind string

// The workload shapes of Figs. 6 and 7. As with algorithms, any registered
// workload name is valid.
const (
	UniformTraffic  TrafficKind = "uniform"
	DiagonalTraffic TrafficKind = "diagonal"
)

// ScenarioKind selects one of the registered dynamic scenarios.
type ScenarioKind string

// FlashCrowd is the built-in dynamic scenario the flashcrowd study runs
// (registered in internal/traffic). As with algorithms, any scenario name
// registered in internal/registry is equally valid.
const FlashCrowd ScenarioKind = "flashcrowd"

// PatternOpts builds the rate matrix for the named workload at the given
// load with an explicit option assignment, validated against the workload's
// registered schema (nil selects every default).
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
	// time-series windows recorded on the resulting Point; it must not
	// exceed Slots. A point with a Scenario defaults to 10 windows.
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
	if c.Scenario != "" && c.Windows == 0 {
		c.Windows = 10
	}
	if c.Context == nil {
		c.Context = context.Background()
	}
	return c
}

// validate rejects a configuration no point can be measured under, naming
// the offending field.
func (c Config) validate() error {
	switch {
	case c.N < 2:
		return fmt.Errorf("experiment: N = %d, want >= 2", c.N)
	case c.Slots <= 0:
		return fmt.Errorf("experiment: Slots = %d, want > 0", c.Slots)
	case c.Windows < 0 || sim.Slot(c.Windows) > c.Slots:
		return fmt.Errorf("experiment: Windows = %d, want 0 to Slots (%d)", c.Windows, c.Slots)
	case c.Burst != 0 && c.Burst < 1:
		return fmt.Errorf("experiment: Burst = %v, want 0 (Bernoulli) or >= 1", c.Burst)
	}
	return nil
}

// RunPoint measures one (algorithm, load) point. One seed generator builds
// the workload matrix and then, with a Scenario, its event timeline; the
// switch is provisioned from the base matrix, and the arrival process
// (traffic.Dynamic) starts from it and applies the timeline as it comes
// due. With Windows > 0 the measured horizon is also recorded as a time
// series. Neither windows nor an empty timeline touch the packet trace, so
// a windowed point reproduces the plain one exactly.
func RunPoint(alg Algorithm, cfg Config, load float64) (Point, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return Point{}, err
	}
	rng := rand.New(&lazySource{seed: cfg.Seed})
	m, err := PatternOpts(cfg.Traffic, cfg.N, load, rng, cfg.TrafficOptions)
	if err != nil {
		return Point{}, err
	}
	var events []registry.Event
	if cfg.Scenario != "" {
		events, err = registry.BuildScenario(string(cfg.Scenario), registry.ScenarioConfig{
			N: cfg.N, Load: load, Burst: cfg.Burst, Base: m.Rows(),
			Warmup: cfg.Warmup, Slots: cfg.Slots, Rand: rng,
		}, cfg.ScenarioOptions)
		if err != nil {
			return Point{}, err
		}
	}
	// A static architecture keeps whatever stripe placement the pre-event
	// rates imply, while an adaptive one re-measures and re-converges: the
	// comparison a scenario exists to make.
	sw, err := NewSwitchOpts(alg, m, cfg.Seed, cfg.AlgOptions)
	if err != nil {
		return Point{}, err
	}
	srcRand := seededRand(cfg.Seed + int64(load*1e6))
	var src sim.Source = traffic.NewDynamic(m, events, cfg.Burst, srcRand)
	sourceRands.Put(srcRand)
	delay := &stats.Delay{}
	var reorder *stats.Reorder
	var obs stats.Multi
	onSlot := cfg.OnSlot
	var windowed *stats.Windowed
	if cfg.Windows > 0 {
		windowed = stats.NewWindowed(cfg.N, cfg.Warmup, cfg.Slots, cfg.Windows)
		src = windowed.WrapSource(src)
		// The windowed collector already runs a whole-run reorder
		// detector; reuse it instead of charging every delivery twice.
		reorder = windowed.ReorderDetector()
		obs = stats.Multi{delay, windowed}
		// Backlog is only evaluated on window-closing slots.
		backlog := sw.Backlog
		onSlot = func(t sim.Slot) {
			windowed.OnSlot(t, backlog)
			if cfg.OnSlot != nil {
				cfg.OnSlot(t)
			}
		}
	} else {
		reorder = stats.NewReorder(cfg.N)
		obs = stats.Multi{delay, reorder}
	}
	runOpts := []sim.Option{
		sim.WithWarmup(cfg.Warmup), sim.WithSlots(cfg.Slots), sim.WithContext(cfg.Context),
	}
	if onSlot != nil {
		runOpts = append(runOpts, sim.WithSlotHook(onSlot))
	}
	offered, delivered := sim.Run(sw, src, obs, runOpts...)
	if err := cfg.Context.Err(); err != nil {
		return Point{}, err
	}
	p := Point{
		Algorithm: alg,
		Traffic:   cfg.Traffic,
		Scenario:  cfg.Scenario,
		N:         cfg.N,
		Load:      load,
		MeanDelay: delay.Mean(),
		P99Delay:  float64(delay.Percentile(99)),
		MaxDelay:  float64(delay.Max()),
		Reordered: reorder.Reordered(),
		Delivered: delivered,
	}
	if windowed != nil {
		p.Windows = windowed.Points()
	}
	if offered > 0 {
		p.Throughput = float64(delivered) / float64(offered)
	}
	return p, nil
}

// sourceRands recycles the generator RunPoint seeds a point's traffic source
// from. The source takes one draw and keeps nothing of the generator, and
// Seed puts a generator in exactly the state rand.NewSource(seed) starts in,
// so a reused one gives the same draws without the 4.9 KB a new one
// allocates.
var sourceRands = sync.Pool{New: func() any { return rand.New(rand.NewSource(0)) }}

// seededRand returns a generator whose draws are those of
// rand.New(rand.NewSource(seed)). Put it back in sourceRands when done.
func seededRand(seed int64) *rand.Rand {
	r := sourceRands.Get().(*rand.Rand)
	r.Seed(seed)
	return r
}

// lazySource is the source of a point's pattern generator: it seeds the
// standard source (4.9 KB and about 10 µs of seeding) on the first draw, and
// only the permutation workload and the scenarios ever draw. Uint64 forwards
// so that rand.Rand's Uint64 reads the standard source's own values; every
// draw is the one rand.NewSource(seed) would give.
type lazySource struct {
	seed int64
	src  rand.Source64
}

func (l *lazySource) source() rand.Source64 {
	if l.src == nil {
		l.src = rand.NewSource(l.seed).(rand.Source64)
	}
	return l.src
}

func (l *lazySource) Int63() int64    { return l.source().Int63() }
func (l *lazySource) Uint64() uint64  { return l.source().Uint64() }
func (l *lazySource) Seed(seed int64) { l.seed, l.src = seed, nil }

// PaperLoads is the load grid of Figures 6 and 7 (the top point is pulled
// to 0.98 because several schemes saturate at 1.0 and their delay would be
// unbounded in any finite simulation).
var PaperLoads = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.98}
