package experiment

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"strconv"
	"strings"

	"sprinklers/internal/registry"
	"sprinklers/internal/sim"
)

// SpecKind selects what a study point computes.
type SpecKind string

const (
	// SimStudy points run full switch simulations (the default).
	SimStudy SpecKind = "sim"
	// MarkovStudy points evaluate the Fig. 5 closed-form intermediate-stage
	// delay model; the grid is Sizes x Loads and needs no replicas.
	MarkovStudy SpecKind = "markov"
	// BoundStudy points evaluate the Table 1 overload bounds; the grid is
	// Sizes x Loads and needs no replicas.
	BoundStudy SpecKind = "bound"
	// AdaptiveStudy points run full switch simulations like SimStudy, but
	// the load grid is a coarse seed that the runner refines where the
	// delay curve bends or diverges from the calibrated analytic twin, and
	// replicas stop early once the batch-means CI is tight (Spec.Adaptive
	// holds the budget and tolerances). The refined grid is a
	// deterministic function of the spec, so adaptive studies checkpoint,
	// resume, and cluster-execute byte-identically like dense ones.
	AdaptiveStudy SpecKind = "adaptive"
)

// simLike reports whether the kind runs switch simulations (and therefore
// takes algorithms, traffic, bursts and a slot horizon) as opposed to
// evaluating closed forms.
func (s Spec) simLike() bool { return s.Kind == SimStudy || s.Kind == AdaptiveStudy }

// AdaptiveSpec is the refinement budget and tolerances of an adaptive
// study. Zero fields are filled by WithDefaults; every parameter is part
// of the normalized spec (and therefore the checkpoint header), so a
// resume under a drifted budget is rejected like any other spec drift.
type AdaptiveSpec struct {
	// MaxPoints bounds the total number of grid points (seed + refined).
	// Default: 3x the seed grid. Setting it to the seed-grid size disables
	// refinement entirely.
	MaxPoints int `json:"max_points,omitempty"`
	// MaxRounds bounds the refinement rounds. Default 6.
	MaxRounds int `json:"max_rounds,omitempty"`
	// RefineThreshold is the per-interval refinement trigger: an interval
	// between neighboring loads is split when either endpoint's
	// twin-vs-sim divergence or normalized curvature (second difference)
	// exceeds it. Default 0.15.
	RefineThreshold float64 `json:"refine_threshold,omitempty"`
	// CIRelTol is the sequential early-stopping tolerance: a point stops
	// adding replicas once the 95% CI half-width of the replica delay
	// means is at or under CIRelTol x mean (denominator floored at 1
	// slot). Default 0.10.
	CIRelTol float64 `json:"ci_rel_tol,omitempty"`
	// MinReplicas is the fewest replicas a point runs before early
	// stopping may trigger. Default min(2, Replicas).
	MinReplicas int `json:"min_replicas,omitempty"`
	// MinLoadGap is the smallest load interval refinement may split.
	// Default 0.02.
	MinLoadGap float64 `json:"min_load_gap,omitempty"`
}

// Series selects one series of a study: a registered name (an
// architecture, a workload or a scenario), an optional per-series option
// assignment validated against that name's registered schema, and an
// optional display label. In JSON an entry is either a bare name string
// ("pf") or an object keyed by its kind ({"algorithm": "pf", "options":
// {"threshold": 64}}); the object form with an "as" label lets one study
// sweep the same name under several option assignments (e.g. a PF threshold
// sweep) as distinct series.
type Series[K seriesName] struct {
	// Name is the registered name.
	Name K
	// As relabels the series in results and renderings; it defaults to
	// Name and must be unique within a spec.
	As string
	// Options parameterizes the series; WithDefaults fills the registered
	// schema's defaults in.
	Options registry.Options
}

// AlgorithmSpec selects one architecture series ({"algorithm": ...}).
type AlgorithmSpec = Series[Algorithm]

// TrafficSpec selects one workload series ({"traffic": ...}).
type TrafficSpec = Series[TrafficKind]

// ScenarioSpec selects one dynamic-scenario series ({"scenario": ...}). A
// study with scenarios runs every grid point under each scenario's event
// timeline — the workload supplies the base rate matrix the scenario
// perturbs — and collects the windowed time series alongside the point
// aggregates.
type ScenarioSpec = Series[ScenarioKind]

// seriesName constrains a series' name type to the three kinds a spec
// takes; each knows its JSON key and its registry.
type seriesName interface {
	~string
	kind() *seriesKind
}

// seriesKind describes one kind of series.
type seriesKind struct {
	key  string // the object form's name key, and the noun of its errors
	noun string // the noun of the unknown-name error
	// wire is Series' object form with key as the name's JSON key, ahead
	// of "as" and "options"; a Series converts to it field for field.
	wire  reflect.Type
	table seriesTable // the kind's registry table: its schemas and names
}

// seriesTable is what a series reads of its kind's registry table.
type seriesTable interface {
	Schema(name string) (registry.Schema, bool)
	Names() []string
}

func newSeriesKind[K seriesName](key, noun string, table seriesTable) seriesKind {
	return seriesKind{key: key, noun: noun, table: table, wire: reflect.StructOf([]reflect.StructField{
		{Name: "Name", Type: reflect.TypeFor[K](), Tag: reflect.StructTag(`json:"` + key + `"`)},
		{Name: "As", Type: reflect.TypeFor[string](), Tag: `json:"as,omitempty"`},
		{Name: "Options", Type: reflect.TypeFor[registry.Options](), Tag: `json:"options,omitempty"`},
	})}
}

var (
	algorithmKind = newSeriesKind[Algorithm]("algorithm", "algorithm", registry.Architectures)
	trafficKind   = newSeriesKind[TrafficKind]("traffic", "traffic kind", registry.Workloads)
	scenarioKind  = newSeriesKind[ScenarioKind]("scenario", "scenario", registry.Scenarios)
)

func (Algorithm) kind() *seriesKind    { return &algorithmKind }
func (TrafficKind) kind() *seriesKind  { return &trafficKind }
func (ScenarioKind) kind() *seriesKind { return &scenarioKind }

// label returns the series label: As when set, else the name.
func (e Series[K]) label() K {
	if e.As != "" {
		return K(e.As)
	}
	return e.Name
}

// MarshalJSON renders option-free, unrelabeled entries as bare name
// strings. Note that after WithDefaults a name with a non-empty schema
// always carries its full normalized options, so only optionless names keep
// the compact form in normalized specs (and checkpoint headers) —
// deliberately: the header must record the exact assignment each point ran
// with, so a resume under drifted options or changed schema defaults is
// rejected.
func (e Series[K]) MarshalJSON() ([]byte, error) {
	if len(e.Options) == 0 && e.As == "" {
		return json.Marshal(string(e.Name))
	}
	return json.Marshal(reflect.ValueOf(e).Convert(e.Name.kind().wire).Interface())
}

// UnmarshalJSON accepts a bare name string or the object form, rejecting
// unknown object fields like the surrounding spec decoder does.
func (e *Series[K]) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		return json.Unmarshal(b, &e.Name)
	}
	k := e.Name.kind()
	w := reflect.New(k.wire)
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(w.Interface()); err != nil {
		return err
	}
	r := w.Elem().Convert(reflect.TypeFor[Series[K]]()).Interface().(Series[K])
	if r.Name == "" {
		return fmt.Errorf("%s entry %s missing its %q name", k.key, b, k.key)
	}
	*e = r
	return nil
}

// normalizeSeries returns a copy of the series with every entry's options
// normalized against its registered schema, and nil for an empty list.
// Entries that do not normalize (unknown name, bad option) are left
// untouched for Validate to report.
func normalizeSeries[K seriesName](series []Series[K]) []Series[K] {
	if len(series) == 0 {
		return nil
	}
	out := make([]Series[K], len(series))
	for i, e := range series {
		out[i] = e
		if schema, ok := e.Name.kind().table.Schema(string(e.Name)); ok {
			if norm, err := schema.Normalize(e.Options); err == nil {
				out[i].Options = norm
			}
		}
	}
	return out
}

// validateSeries checks that every entry names a registered K whose schema
// accepts its options, then runs check (when non-nil) on the entry and its
// normalized options, then checks that labels are unique.
func validateSeries[K seriesName](series []Series[K], check func(Series[K], registry.Options) error) error {
	seen := map[K]bool{}
	for _, e := range series {
		k := e.Name.kind()
		schema, ok := k.table.Schema(string(e.Name))
		if !ok {
			return fmt.Errorf("experiment: unknown %s %q (registered: %s)",
				k.noun, e.Name, strings.Join(k.table.Names(), ", "))
		}
		norm, err := schema.Normalize(e.Options)
		if err != nil {
			return fmt.Errorf("experiment: %s %q: %v", k.key, e.label(), err)
		}
		if check != nil {
			if err := check(e, norm); err != nil {
				return err
			}
		}
		if seen[e.label()] {
			return fmt.Errorf("experiment: %s series %q appears twice; relabel one with \"as\"", k.key, e.label())
		}
		seen[e.label()] = true
	}
	return nil
}

// entry resolves a point's label back to its spec entry (the registered
// name plus the option assignment the series runs with). Labels are unique
// per Validate, so the first match is the match.
func entry[K seriesName](series []Series[K], label K) Series[K] {
	for _, e := range series {
		if e.label() == label {
			return e
		}
	}
	return Series[K]{Name: label}
}

// Algs wraps plain architecture names as option-free spec entries.
func Algs(names ...Algorithm) []AlgorithmSpec { return bare(names) }

// Traffics wraps plain workload names as option-free spec entries.
func Traffics(kinds ...TrafficKind) []TrafficSpec { return bare(kinds) }

func bare[K seriesName](names []K) []Series[K] {
	out := make([]Series[K], len(names))
	for i, n := range names {
		out[i] = Series[K]{Name: n}
	}
	return out
}

// adaptiveSprinklers is the tuned adaptive-Sprinklers series of the
// flashcrowd builtin. The default 4*N*N measurement window is only 256
// slots at N=8 — too noisy to hold a stripe size steady — so the series
// pins a 1024-slot window with a one-window hold, which tracks a crowd
// without thrashing at the small sizes these studies run at.
func adaptiveSprinklers() AlgorithmSpec {
	return AlgorithmSpec{
		Name: Sprinklers,
		As:   "sprinklers-adaptive",
		Options: registry.Options{
			"adaptive": true, "adaptive-window": 1024, "adaptive-hold": 1,
		},
	}
}

// Spec declares a full simulation study as data: the cartesian grid of
// algorithms x traffic kinds x loads x switch sizes x burstiness, with
// Replicas independently-seeded runs per grid point. A Spec is plain JSON, so
// studies can be version-controlled, diffed, and resumed; cmd/sweep runs one.
//
// The zero values of optional fields are filled by WithDefaults, which also
// normalizes every options object against the registered schemas (defaults
// applied, values canonicalized); Validate rejects grids the simulator
// cannot honor (loads outside (0,1), non-power-of-two sizes, unknown or
// ill-optioned algorithms and workloads).
type Spec struct {
	// Name labels the study in progress output and results metadata.
	Name string `json:"name,omitempty"`
	// Kind is the point type: "sim" (default), "markov", or "bound".
	Kind SpecKind `json:"kind,omitempty"`
	// Algorithms are the architecture series to compare (sim studies only).
	Algorithms []AlgorithmSpec `json:"algorithms,omitempty"`
	// Traffic are the workload series to drive (sim studies only).
	Traffic []TrafficSpec `json:"traffic,omitempty"`
	// Loads is the offered-load grid; every load must lie in (0, 1).
	Loads []float64 `json:"loads"`
	// Sizes is the switch-size grid; every size must be a power of two.
	Sizes []int `json:"sizes"`
	// Bursts is the burstiness grid: 0 runs Bernoulli arrivals as in the
	// paper, b >= 1 runs on/off arrivals with mean burst length b.
	Bursts []float64 `json:"bursts,omitempty"`
	// Scenarios are the dynamic-scenario series: each grid point runs once
	// per scenario with the scenario's event timeline perturbing the
	// workload's rate matrix mid-run (sim studies only; empty keeps every
	// point static).
	Scenarios []ScenarioSpec `json:"scenarios,omitempty"`
	// Windows splits each replica's measured horizon into this many
	// equal time-series windows (per-window delay, backlog, throughput,
	// reordering recorded on every point). 0 disables windowed collection
	// unless scenarios are present, where it defaults to 10.
	Windows int `json:"windows,omitempty"`
	// Replicas is the number of independently-seeded runs per grid point;
	// replica means are aggregated into a mean with a 95% confidence
	// interval. Defaults to 1.
	Replicas int `json:"replicas,omitempty"`
	// Slots is the measured horizon per replica; Warmup defaults to
	// Slots/5.
	Slots  sim.Slot `json:"slots,omitempty"`
	Warmup sim.Slot `json:"warmup,omitempty"`
	// Seed is the study's base seed; every (point, replica) pair derives
	// its own seed from it deterministically, so a study is reproducible
	// and resumable regardless of worker scheduling.
	Seed int64 `json:"seed,omitempty"`
	// Adaptive holds the refinement budget and tolerances of an adaptive
	// study ("kind": "adaptive" only; Loads become the coarse seed grid).
	Adaptive *AdaptiveSpec `json:"adaptive,omitempty"`
}

// WithDefaults returns the spec with unset optional fields filled in and
// every algorithm/traffic options object normalized against its registered
// schema: schema defaults applied, values canonicalized to their JSON
// representation. Normalization makes the spec self-describing — the
// checkpoint header records the exact option assignment each point ran
// with, so a resume under different options (or different schema defaults)
// is rejected. Entries that do not normalize (unknown name, bad option) are
// left untouched for Validate to report.
func (s Spec) WithDefaults() Spec {
	if s.Kind == "" {
		s.Kind = SimStudy
	}
	// A JSON "[]" and an absent field must canonicalize identically: the
	// checkpoint header is compared against a re-parsed spec with
	// reflect.DeepEqual, and omitempty erases the distinction on marshal —
	// an empty-but-non-nil slice here would make a study refuse to resume
	// its own checkpoint. (Found by FuzzSpecJSON.)
	s.Algorithms = normalizeSeries(s.Algorithms)
	s.Traffic = normalizeSeries(s.Traffic)
	s.Scenarios = normalizeSeries(s.Scenarios)
	if len(s.Scenarios) > 0 && s.Windows == 0 {
		s.Windows = 10
	}
	if len(s.Bursts) == 0 {
		s.Bursts = nil
	}
	if len(s.Bursts) == 0 && s.simLike() {
		s.Bursts = []float64{0}
	}
	if s.Replicas == 0 {
		s.Replicas = 1
	}
	if s.Slots == 0 && s.simLike() {
		s.Slots = 100_000
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Kind == AdaptiveStudy {
		// Copy before filling: Spec is a value but Adaptive is a pointer,
		// and WithDefaults must not mutate the caller's spec.
		ad := AdaptiveSpec{}
		if s.Adaptive != nil {
			ad = *s.Adaptive
		}
		if ad.MaxPoints == 0 {
			// The seed-grid enumeration only needs the axes defaulted
			// above, so NumPoints is well-defined here.
			ad.MaxPoints = 3 * s.NumPoints()
		}
		if ad.MaxRounds == 0 {
			ad.MaxRounds = 6
		}
		if ad.RefineThreshold == 0 {
			ad.RefineThreshold = 0.15
		}
		if ad.CIRelTol == 0 {
			ad.CIRelTol = 0.10
		}
		if ad.MinReplicas == 0 {
			ad.MinReplicas = min(2, s.Replicas)
		}
		if ad.MinLoadGap == 0 {
			ad.MinLoadGap = 0.02
		}
		s.Adaptive = &ad
	}
	return s
}

func isPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// Validate reports the first problem that would make the study unrunnable.
// It validates the spec as given; call WithDefaults first.
func (s Spec) Validate() error {
	switch s.Kind {
	case SimStudy, MarkovStudy, BoundStudy, AdaptiveStudy:
	default:
		return fmt.Errorf("experiment: unknown spec kind %q", s.Kind)
	}
	if s.Kind != AdaptiveStudy && s.Adaptive != nil {
		return fmt.Errorf("experiment: %s studies take no adaptive parameters", s.Kind)
	}
	if len(s.Loads) == 0 {
		return fmt.Errorf("experiment: spec has no loads")
	}
	for _, l := range s.Loads {
		if !(l > 0 && l < 1) {
			return fmt.Errorf("experiment: load %v outside (0, 1)", l)
		}
	}
	if len(s.Sizes) == 0 {
		return fmt.Errorf("experiment: spec has no sizes")
	}
	for _, n := range s.Sizes {
		// The fabrics and the striping rule need a power-of-two port count
		// (Sec. 3.1); the analytic models are defined for any N >= 2.
		if s.simLike() && !isPow2(n) {
			return fmt.Errorf("experiment: size %d is not a power of two", n)
		}
		if n < 2 {
			return fmt.Errorf("experiment: size %d < 2", n)
		}
	}
	if !s.simLike() {
		if len(s.Algorithms) != 0 || len(s.Traffic) != 0 {
			return fmt.Errorf("experiment: %s studies take no algorithms or traffic kinds", s.Kind)
		}
		if len(s.Scenarios) != 0 || s.Windows != 0 {
			return fmt.Errorf("experiment: %s studies take no scenarios or windows", s.Kind)
		}
		if s.Replicas != 1 {
			return fmt.Errorf("experiment: %s studies are deterministic; replicas must be 1", s.Kind)
		}
		if len(s.Bursts) != 0 {
			return fmt.Errorf("experiment: %s studies take no bursts", s.Kind)
		}
		return nil
	}
	if len(s.Algorithms) == 0 {
		return fmt.Errorf("experiment: %s spec has no algorithms", s.Kind)
	}
	if err := validateSeries(s.Algorithms, func(a AlgorithmSpec, norm registry.Options) error {
		// Size-coupled constraints (e.g. pf's threshold <= N) are checked
		// against every grid size now, not mid-study.
		arch, _ := registry.Architectures.Lookup(string(a.Name))
		if arch.ValidateFor == nil {
			return nil
		}
		for _, n := range s.Sizes {
			if err := arch.ValidateFor(n, norm); err != nil {
				return fmt.Errorf("experiment: algorithm %q: %v", a.label(), err)
			}
		}
		return nil
	}); err != nil {
		return err
	}
	if len(s.Traffic) == 0 {
		return fmt.Errorf("experiment: %s spec has no traffic kinds", s.Kind)
	}
	if err := validateSeries(s.Traffic, nil); err != nil {
		return err
	}
	if err := validateSeries(s.Scenarios, nil); err != nil {
		return err
	}
	for _, b := range s.Bursts {
		if b != 0 && b < 1 {
			return fmt.Errorf("experiment: burst %v invalid (0 = Bernoulli, otherwise mean burst >= 1)", b)
		}
	}
	if s.Windows < 0 {
		return fmt.Errorf("experiment: windows %d < 0", s.Windows)
	}
	if s.Windows > 0 && sim.Slot(s.Windows) > s.Slots {
		return fmt.Errorf("experiment: %d windows do not fit %d measured slots", s.Windows, s.Slots)
	}
	if s.Replicas < 1 {
		return fmt.Errorf("experiment: replicas %d < 1", s.Replicas)
	}
	if s.Slots <= 0 {
		return fmt.Errorf("experiment: slots %d <= 0", s.Slots)
	}
	if s.Warmup < 0 {
		return fmt.Errorf("experiment: warmup %d < 0", s.Warmup)
	}
	if s.Kind == AdaptiveStudy {
		return s.validateAdaptive()
	}
	return nil
}

// validateAdaptive checks the adaptive-only constraints after the shared
// sim-grid checks passed.
func (s Spec) validateAdaptive() error {
	if len(s.Scenarios) != 0 || s.Windows != 0 {
		// Refinement reasons about one scalar per point (the mean delay
		// curve); windowed trajectories and scenario timelines have no
		// twin to calibrate against, so they stay dense-study features.
		return fmt.Errorf("experiment: adaptive studies take no scenarios or windows")
	}
	ad := s.Adaptive
	if ad == nil {
		return fmt.Errorf("experiment: adaptive spec has no adaptive parameters (call WithDefaults)")
	}
	if seed := s.NumPoints(); ad.MaxPoints < seed {
		return fmt.Errorf("experiment: adaptive max_points %d below the %d-point seed grid", ad.MaxPoints, seed)
	}
	if ad.MaxRounds < 0 {
		return fmt.Errorf("experiment: adaptive max_rounds %d < 0", ad.MaxRounds)
	}
	if ad.RefineThreshold <= 0 {
		return fmt.Errorf("experiment: adaptive refine_threshold %v <= 0", ad.RefineThreshold)
	}
	if ad.CIRelTol < 0 || ad.CIRelTol >= 1 {
		return fmt.Errorf("experiment: adaptive ci_rel_tol %v outside [0, 1)", ad.CIRelTol)
	}
	if ad.MinReplicas < 1 || ad.MinReplicas > s.Replicas {
		return fmt.Errorf("experiment: adaptive min_replicas %d outside [1, %d replicas]", ad.MinReplicas, s.Replicas)
	}
	if ad.MinLoadGap <= 0 || ad.MinLoadGap >= 0.5 {
		return fmt.Errorf("experiment: adaptive min_load_gap %v outside (0, 0.5)", ad.MinLoadGap)
	}
	return nil
}

// PointKey identifies one grid point of a study. For analytic kinds
// (markov, bound) only N and Load are set.
type PointKey struct {
	Algorithm Algorithm    `json:"algorithm,omitempty"`
	Traffic   TrafficKind  `json:"traffic,omitempty"`
	Scenario  ScenarioKind `json:"scenario,omitempty"`
	N         int          `json:"n"`
	Load      float64      `json:"load"`
	Burst     float64      `json:"burst,omitempty"`
}

func (k PointKey) String() string {
	if k.Algorithm == "" {
		return fmt.Sprintf("N=%d load=%.4g", k.N, k.Load)
	}
	s := fmt.Sprintf("%s %s N=%d load=%.4g", k.Algorithm, k.Traffic, k.N, k.Load)
	if k.Burst > 0 {
		s += fmt.Sprintf(" burst=%.4g", k.Burst)
	}
	if k.Scenario != "" {
		s += fmt.Sprintf(" scenario=%s", k.Scenario)
	}
	return s
}

// Points enumerates the study grid in its canonical order: algorithm,
// traffic, size, burst, then load (innermost), so curves fill progressively.
// Checkpoint files record points in exactly this order, which is what makes
// a resumed study byte-identical to an uninterrupted one. For adaptive
// studies this is the seed grid only — the refinement batches extend it
// deterministically at run time (see nextBatch).
func (s Spec) Points() []PointKey {
	var out []PointKey
	if !s.simLike() {
		for _, n := range s.Sizes {
			for _, l := range s.Loads {
				out = append(out, PointKey{N: n, Load: l})
			}
		}
		return out
	}
	bursts := s.Bursts
	if len(bursts) == 0 {
		bursts = []float64{0}
	}
	scenarios := []ScenarioKind{""}
	if len(s.Scenarios) > 0 {
		scenarios = scenarios[:0]
		for _, sc := range s.Scenarios {
			scenarios = append(scenarios, sc.label())
		}
	}
	for _, a := range s.Algorithms {
		for _, tk := range s.Traffic {
			for _, n := range s.Sizes {
				for _, b := range bursts {
					for _, sc := range scenarios {
						for _, l := range s.Loads {
							out = append(out, PointKey{Algorithm: a.label(), Traffic: tk.label(), Scenario: sc, N: n, Load: l, Burst: b})
						}
					}
				}
			}
		}
	}
	return out
}

// NumPoints returns the size of the study grid.
func (s Spec) NumPoints() int { return len(s.Points()) }

// Narrow returns the one-point spec of key: s cut down to the point's own
// algorithm, traffic and scenario entries (labels and options kept), its
// load, its size and its burst, with every other field unchanged. It is
// what a cluster job carries instead of the whole study. Call it on a
// WithDefaults-normalized spec; the result then normalizes to itself,
// validates, enumerates key as its only point, and keeps the point's
// content identity and replica seeds:
//
//	s.Narrow(k).PointIdentity(k) == s.PointIdentity(k)
//
// The key's load need not be in s.Loads (an adaptive study's refined
// points are not).
func (s Spec) Narrow(key PointKey) Spec {
	s.Loads = []float64{key.Load}
	s.Sizes = []int{key.N}
	if !s.simLike() {
		return s
	}
	s.Algorithms = []AlgorithmSpec{entry(s.Algorithms, key.Algorithm)}
	s.Traffic = []TrafficSpec{entry(s.Traffic, key.Traffic)}
	s.Bursts = []float64{key.Burst}
	if key.Scenario == "" {
		s.Scenarios = nil
	} else {
		s.Scenarios = []ScenarioSpec{entry(s.Scenarios, key.Scenario)}
	}
	return s
}

// ParseSpec decodes a JSON spec, rejecting unknown fields so typos in
// hand-written studies fail loudly rather than silently running the default.
func ParseSpec(r io.Reader) (Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("experiment: bad spec: %w", err)
	}
	return s, nil
}

// MarshalSpecIndent renders the spec as indented JSON, the canonical
// serialized form of a study (round-trips through ParseSpec).
func MarshalSpecIndent(s Spec) ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// LoadSpec reads a JSON spec from disk.
func LoadSpec(path string) (Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return Spec{}, err
	}
	defer f.Close()
	return ParseSpec(f)
}

// ParseIntList parses a comma-separated integer list — the grid-flag syntax
// of sweep (e.g. "-ns 8,16,32").
func ParseIntList(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("bad integer %q: %v", f, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// ParseFloatList parses a comma-separated float list (e.g. "-loads 0.5,0.9").
func ParseFloatList(s string) ([]float64, error) {
	var out []float64
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return nil, fmt.Errorf("bad float %q: %v", f, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// BuiltinSpec returns one of the named built-in studies:
//
//   - "fig6":   Figure 6 (uniform traffic, N=32, the paper's five curves)
//   - "fig7":   Figure 7 (diagonal traffic, N=32)
//   - "fig5":   Figure 5 (closed-form intermediate-stage delay vs N)
//   - "table1": Table 1 (per-queue overload bounds)
//   - "smoke":  a seconds-scale replicated study; TestResumeFromTornCheckpoint
//     (cmd/sweep) resumes it and TestProcesses (cmd/sprinklerd) serves it
//   - "flashcrowd": a seconds-scale dynamic study — static Sprinklers,
//     adaptive Sprinklers and the load-balanced baseline riding out a
//     flash crowd, with per-window recovery trajectories
//   - "adaptive-fig6": the Figure 6 comparison as an adaptive study — a
//     coarse load seed refined near the delay knees, replicas stopped
//     early on tight CIs; a fraction of fig6's simulated slots
//   - "adaptive-smoke": a seconds-scale adaptive study;
//     TestResumeFromTornCheckpoint (cmd/sweep) resumes it and
//     TestAdaptiveBeatsDenseWithinTolerance pins its work against the
//     dense grid it refines
func BuiltinSpec(name string) (Spec, error) {
	switch name {
	case "adaptive-fig6":
		return Spec{
			Name: "adaptive-fig6", Kind: AdaptiveStudy,
			Algorithms: Algs(Fig6Algorithms...), Traffic: Traffics(UniformTraffic),
			Loads: []float64{0.1, 0.3, 0.5, 0.7, 0.85, 0.95},
			Sizes: []int{32}, Replicas: 3, Slots: 1_000_000, Seed: 1,
		}, nil
	case "adaptive-smoke":
		// FOFF and the load-balanced baseline have smooth, monotone delay
		// curves at this tiny scale; Sprinklers' seconds-scale delay is
		// dominated by per-seed stripe placement, which no interpolation can
		// reproduce — it stays in the full-scale adaptive-fig6 study.
		return Spec{
			Name: "adaptive-smoke", Kind: AdaptiveStudy,
			Algorithms: Algs(FOFF, LoadBalanced),
			Traffic:    Traffics(UniformTraffic),
			Loads:      []float64{0.2, 0.5, 0.8, 0.95},
			Sizes:      []int{8},
			Replicas:   4,
			Slots:      2_000,
			Seed:       1,
			Adaptive: &AdaptiveSpec{
				MaxPoints:       12,
				MaxRounds:       4,
				RefineThreshold: 0.15,
				CIRelTol:        0.25,
				MinReplicas:     2,
				MinLoadGap:      0.02,
			},
		}, nil
	case "fig6":
		return Spec{
			Name: "fig6", Kind: SimStudy,
			Algorithms: Algs(Fig6Algorithms...), Traffic: Traffics(UniformTraffic),
			Loads: PaperLoads, Sizes: []int{32}, Slots: 1_000_000, Seed: 1,
		}, nil
	case "fig7":
		return Spec{
			Name: "fig7", Kind: SimStudy,
			Algorithms: Algs(Fig6Algorithms...), Traffic: Traffics(DiagonalTraffic),
			Loads: PaperLoads, Sizes: []int{32}, Slots: 1_000_000, Seed: 1,
		}, nil
	case "fig5":
		return Spec{
			Name: "fig5", Kind: MarkovStudy,
			Loads: []float64{0.9}, Sizes: []int{8, 16, 32, 64, 128, 256, 512, 768, 1024},
		}, nil
	case "table1":
		return Spec{
			Name: "table1", Kind: BoundStudy,
			Loads: []float64{0.90, 0.91, 0.92, 0.93, 0.94, 0.95, 0.96, 0.97},
			Sizes: []int{1024, 2048, 4096},
		}, nil
	case "flashcrowd":
		return Spec{
			Name: "flashcrowd", Kind: SimStudy,
			Algorithms: []AlgorithmSpec{
				{Name: Sprinklers},
				adaptiveSprinklers(),
				{Name: LoadBalanced},
			},
			Traffic:   Traffics(UniformTraffic),
			Scenarios: []ScenarioSpec{{Name: FlashCrowd}},
			Loads:     []float64{0.5, 0.8},
			Sizes:     []int{8},
			Replicas:  2,
			Slots:     6_000,
			Windows:   12,
			Seed:      1,
		}, nil
	case "smoke":
		return Spec{
			Name: "smoke", Kind: SimStudy,
			Algorithms: Algs(Sprinklers, LoadBalanced),
			Traffic:    Traffics(UniformTraffic),
			Loads:      []float64{0.3, 0.6, 0.9},
			Sizes:      []int{8},
			Replicas:   3,
			Slots:      2_000,
			Seed:       1,
		}, nil
	default:
		return Spec{}, fmt.Errorf("experiment: unknown built-in spec %q", name)
	}
}
