// Package registry is the harness's extension point: switch architectures,
// traffic workloads and dynamic scenarios register themselves under a
// stable name with metadata and a typed option schema, and the experiment
// layer (specs, runners, cmd tools, conformance suites) discovers them by
// lookup instead of hard-wired switch statements. Each kind has one Table —
// Architectures, Workloads and Scenarios — and all three register, look
// up, order and catalog their entries by the same code. Adding an entry of
// any kind is one package with a Register call in an init function — every
// spec, cmd tool and protocol test picks it up automatically.
//
// Registration happens in init functions only; after program start the
// registry is read-only, so lookups are safe from any goroutine.
package registry

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"

	"sprinklers/internal/sim"
)

// ArchConfig is everything an architecture constructor receives.
type ArchConfig struct {
	// N is the port count.
	N int
	// Rates is a deep copy of the (estimated) VOQ rate matrix the workload
	// will offer; constructors own it and may retain or mutate it freely.
	// It is only materialized for architectures registered with NeedsRates
	// — for every other constructor it is nil, sparing the O(N^2) copy at
	// every construction.
	Rates [][]float64
	// Seed feeds any randomness the architecture uses (stripe placement,
	// hashing). Constructors must be deterministic given Seed.
	Seed int64
	// Options is the architecture's option assignment, normalized against
	// its schema: every declared key is present with a validated value.
	Options Options
}

// Architecture describes one registered switch architecture.
type Architecture struct {
	// Name is the stable identifier used by specs and flags.
	Name string
	// Description is a one-line summary shown by -list.
	Description string
	// OrderPreserving reports whether the architecture guarantees in-order
	// per-flow delivery.
	OrderPreserving bool
	// MaxStableLoad is the highest offered load the architecture is known
	// to sustain under every admissible pattern; 0 means it is stable at
	// any admissible load. The protocol tests cap their workloads at it
	// and skip throughput assertions for architectures that cannot promise
	// full throughput.
	MaxStableLoad float64
	// Rank orders catalog listings (the paper's legend order); ties break
	// by name.
	Rank int
	// NeedsRates marks constructors that consume ArchConfig.Rates (e.g.
	// Sprinklers sizes its stripes from the rate matrix). When false the
	// rate matrix is never copied for this architecture.
	NeedsRates bool
	// Twin names the analytic delay model that best tracks this
	// architecture's load/delay curve ("markov" for the paper's
	// intermediate-stage closed form, "queue" for a generic single-server
	// shape; "" defaults to "queue"). Adaptive studies evaluate the twin at
	// every candidate point and spend simulation only where twin and
	// simulation diverge.
	Twin string
	// Options declares the architecture's tunable parameters.
	Options Schema
	// ValidateFor, when set, checks constraints that couple a normalized
	// option assignment to the port count (e.g. pf's threshold <= N). It
	// runs before construction, and spec validation runs it against every
	// size of a study grid — so a doomed (options, N) pairing is rejected
	// up front instead of aborting a study hours in.
	ValidateFor func(n int, opts Options) error
	// New constructs the switch.
	New func(cfg ArchConfig) (sim.Switch, error)
}

// Workload describes one registered traffic pattern.
type Workload struct {
	// Name is the stable identifier used by specs and flags.
	Name string
	// Description is a one-line summary shown by -list.
	Description string
	// Rank orders catalog listings; ties break by name.
	Rank int
	// Options declares the pattern's tunable parameters.
	Options Schema
	// Rates builds the N x N rate matrix for the pattern at the given
	// per-input load. rng supplies randomness for randomized patterns and
	// must be the only randomness used, so a pattern is reproducible from
	// the run's seed.
	Rates func(n int, load float64, rng *rand.Rand, opts Options) ([][]float64, error)
}

// entry is what a Table reads of the kind it holds.
type entry interface{ head() head }

// head is the part every kind shares: its catalog entry less the options,
// its listing rank, its option schema, and whether its constructor is set.
type head struct {
	info   Info
	rank   int
	schema Schema
	built  bool
}

func (a Architecture) head() head {
	return head{Info{Name: a.Name, Description: a.Description, OrderPreserving: a.OrderPreserving,
		MaxStableLoad: a.MaxStableLoad}, a.Rank, a.Options, a.New != nil}
}

func (w Workload) head() head {
	return head{Info{Name: w.Name, Description: w.Description}, w.Rank, w.Options, w.Rates != nil}
}

// Table holds the registered entries of one kind under their names.
type Table[T entry] struct {
	noun    string // "architecture", "workload" or "scenario", for messages
	mu      sync.RWMutex
	entries map[string]T
}

// The tables every registration goes into, one per kind.
var (
	Architectures = &Table[Architecture]{noun: "architecture", entries: map[string]Architecture{}}
	Workloads     = &Table[Workload]{noun: "workload", entries: map[string]Workload{}}
	Scenarios     = &Table[Scenario]{noun: "scenario", entries: map[string]Scenario{}}
)

// Register adds e to the table. It panics on a missing name or
// constructor, a duplicate name, or a malformed schema — registration runs
// at init time, where failing loudly beats limping on.
func (t *Table[T]) Register(e T) {
	h := e.head()
	t.mu.Lock()
	defer t.mu.Unlock()
	if h.info.Name == "" || !h.built {
		panic(fmt.Sprintf("registry: %s needs a name and a constructor", t.noun))
	}
	if _, dup := t.entries[h.info.Name]; dup {
		panic(fmt.Sprintf("registry: %s %q registered twice", t.noun, h.info.Name))
	}
	if err := h.schema.validate(); err != nil {
		panic(fmt.Sprintf("registry: %s %q: %v", t.noun, h.info.Name, err))
	}
	t.entries[h.info.Name] = e
}

// Lookup returns the named entry.
func (t *Table[T]) Lookup(name string) (T, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	e, ok := t.entries[name]
	return e, ok
}

// Schema returns the named entry's option schema.
func (t *Table[T]) Schema(name string) (Schema, bool) {
	e, ok := t.Lookup(name)
	return e.head().schema, ok
}

// All returns every entry in canonical order: ascending Rank, then name.
func (t *Table[T]) All() []T {
	t.mu.RLock()
	out := make([]T, 0, len(t.entries))
	for _, e := range t.entries {
		out = append(out, e)
	}
	t.mu.RUnlock()
	slices.SortFunc(out, func(a, b T) int {
		ha, hb := a.head(), b.head()
		return cmp.Or(cmp.Compare(ha.rank, hb.rank), strings.Compare(ha.info.Name, hb.info.Name))
	})
	return out
}

// Names returns the registered names in canonical order.
func (t *Table[T]) Names() []string {
	all := t.All()
	out := make([]string, len(all))
	for i, e := range all {
		out[i] = e.head().info.Name
	}
	return out
}

// resolve returns the named entry and opts normalized against its schema
// (nil opts selects every default).
func (t *Table[T]) resolve(name string, opts map[string]any) (T, Options, error) {
	e, ok := t.Lookup(name)
	if !ok {
		return e, nil, fmt.Errorf("registry: unknown %s %q (registered: %s)",
			t.noun, name, strings.Join(t.Names(), ", "))
	}
	norm, err := e.head().schema.Normalize(opts)
	if err != nil {
		return e, nil, fmt.Errorf("registry: %s %q: %v", t.noun, name, err)
	}
	return e, norm, nil
}

// NewArchitecture builds the named architecture after normalizing opts
// against its schema (nil opts selects every default). rates is invoked —
// only for architectures registered with NeedsRates — to materialize the
// rate matrix; it must return storage the constructor may own. A nil rates
// stands for "no rate estimate" even for NeedsRates architectures.
func NewArchitecture(name string, n int, rates func() [][]float64, seed int64, opts map[string]any) (sim.Switch, error) {
	a, norm, err := Architectures.resolve(name, opts)
	if err != nil {
		return nil, err
	}
	if a.ValidateFor != nil {
		if verr := a.ValidateFor(n, norm); verr != nil {
			return nil, fmt.Errorf("registry: architecture %q: %v", name, verr)
		}
	}
	cfg := ArchConfig{N: n, Seed: seed, Options: norm}
	if a.NeedsRates && rates != nil {
		cfg.Rates = rates()
	}
	return a.New(cfg)
}

// WorkloadRates builds the named workload's rate matrix after normalizing
// opts against its schema (nil opts selects every default).
func WorkloadRates(name string, n int, load float64, rng *rand.Rand, opts map[string]any) ([][]float64, error) {
	w, norm, err := Workloads.resolve(name, opts)
	if err != nil {
		return nil, err
	}
	return w.Rates(n, load, rng, norm)
}
