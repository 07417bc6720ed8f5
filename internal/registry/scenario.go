package registry

import (
	"fmt"
	"math/rand"
	"sort"

	"sprinklers/internal/sim"
)

// Dynamic scenarios are the third kind of registry entry, alongside
// architectures and workloads: a scenario turns a static study point into a
// time-varying one by emitting a timeline of events — rate-matrix changes
// (flash crowds, drift, hotspot migration, load steps) and ingress-link
// capacity changes (fabric link degradation, failure and recovery) — that
// the dynamic traffic source applies mid-run. Like the other entries,
// scenarios self-register under a stable name with a typed option schema,
// so a Spec can name them, normalize their options into the checkpoint
// header, and a -list flag can catalog them.

// LinkChange alters the capacity of the ingress fabric link feeding one
// input port. Factor scales the port's effective arrival rate: 1 restores
// full capacity, 0 models a hard link failure (no cell can enter), values
// in between model degradation (e.g. a lane of a multi-lane link down).
type LinkChange struct {
	// Input is the 0-based input port whose ingress link changes.
	Input int
	// Factor is the new capacity factor in [0, 1].
	Factor float64
}

// Event is one entry of a scenario timeline. Exactly one of Rates and Link
// is set. Events take effect at the start of slot At and stay in effect
// until a later event overrides them.
type Event struct {
	// At is the slot at which the event takes effect.
	At sim.Slot
	// Rates, when non-nil, replaces the source's rate matrix (the N x N
	// per-VOQ arrival rates). Per-flow sequence numbers continue across
	// the swap, so ordering is observable across the boundary.
	Rates [][]float64
	// Link, when non-nil, changes one ingress link's capacity factor.
	Link *LinkChange
}

// ScenarioConfig is everything a scenario's Events builder receives.
type ScenarioConfig struct {
	// N is the port count.
	N int
	// Load is the study point's nominal per-input load; scenarios derive
	// their perturbed matrices from it.
	Load float64
	// Burst is the point's mean burst length (0 = Bernoulli arrivals).
	Burst float64
	// Base is a deep copy of the rate matrix the point starts from (the
	// workload's matrix); builders own it and may mutate it freely.
	Base [][]float64
	// Warmup and Slots give the run's horizon: warmup slots, then Slots
	// measured slots. Events may be placed anywhere in [0, Warmup+Slots),
	// but scenarios conventionally perturb the measured window only, so
	// the pre-event windows establish a steady-state baseline.
	Warmup, Slots sim.Slot
	// Rand supplies randomness (e.g. which inputs join a flash crowd) and
	// must be the builder's only randomness source, so a scenario is
	// reproducible from the run's seed.
	Rand *rand.Rand
	// Options is the scenario's option assignment, normalized against its
	// schema: every declared key is present with a validated value.
	Options Options
}

// Scenario describes one registered dynamic scenario.
type Scenario struct {
	// Name is the stable identifier used by specs and flags.
	Name string
	// Description is a one-line summary shown by -list.
	Description string
	// Rank orders catalog listings; ties break by name.
	Rank int
	// Options declares the scenario's tunable parameters.
	Options Schema
	// Events builds the scenario's timeline for one study point. The
	// returned events need not be sorted; BuildScenario sorts and
	// validates them.
	Events func(cfg ScenarioConfig) ([]Event, error)
}

func (s Scenario) head() head {
	return head{Info{Name: s.Name, Description: s.Description}, s.Rank, s.Options, s.Events != nil}
}

// BuildScenario builds the named scenario's timeline after normalizing opts
// against its schema (nil opts selects every default). cfg.Options is
// overwritten with the normalized assignment. The returned events are
// validated — square non-negative matrices, link factors in [0, 1], inputs
// in range, slots within the horizon — and sorted by At (stable, so two
// events at one slot apply in builder order).
func BuildScenario(name string, cfg ScenarioConfig, opts map[string]any) ([]Event, error) {
	s, norm, err := Scenarios.resolve(name, opts)
	if err != nil {
		return nil, err
	}
	cfg.Options = norm
	events, err := s.Events(cfg)
	if err != nil {
		return nil, fmt.Errorf("registry: scenario %q: %v", name, err)
	}
	total := cfg.Warmup + cfg.Slots
	for _, e := range events {
		if e.At < 0 || e.At >= total {
			return nil, fmt.Errorf("registry: scenario %q: event at slot %d outside horizon [0, %d)", name, e.At, total)
		}
		switch {
		case e.Rates != nil && e.Link != nil:
			return nil, fmt.Errorf("registry: scenario %q: event at slot %d sets both rates and link", name, e.At)
		case e.Rates != nil:
			if len(e.Rates) != cfg.N {
				return nil, fmt.Errorf("registry: scenario %q: event matrix is %dx?, want %dx%d", name, len(e.Rates), cfg.N, cfg.N)
			}
			for i, row := range e.Rates {
				if len(row) != cfg.N {
					return nil, fmt.Errorf("registry: scenario %q: event matrix row %d has %d entries, want %d", name, i, len(row), cfg.N)
				}
				for j, r := range row {
					if r < 0 || r != r {
						return nil, fmt.Errorf("registry: scenario %q: negative or NaN rate at (%d, %d)", name, i, j)
					}
				}
			}
		case e.Link != nil:
			if e.Link.Input < 0 || e.Link.Input >= cfg.N {
				return nil, fmt.Errorf("registry: scenario %q: link event input %d outside [0, %d)", name, e.Link.Input, cfg.N)
			}
			if !(e.Link.Factor >= 0 && e.Link.Factor <= 1) {
				return nil, fmt.Errorf("registry: scenario %q: link factor %v outside [0, 1]", name, e.Link.Factor)
			}
		default:
			return nil, fmt.Errorf("registry: scenario %q: event at slot %d sets neither rates nor link", name, e.At)
		}
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
	return events, nil
}
