package traffic

import (
	"math"

	"sprinklers/internal/registry"
	"sprinklers/internal/sim"
)

// The builtin scenario registrations: event timelines — a flash crowd,
// rate drift, hotspot migration, ingress-link failure and recovery, load
// steps — that turn a static point into a time-varying one, which is where
// the Sec. 3.5 adaptive stripe resizing matters. They sit beside the
// workload registrations whose matrices they perturb, so every program that
// links the workloads lists and runs the scenarios too. Every builder
// derives its matrices from the point's base matrix and nominal load,
// places events inside the measured horizon (so the pre-event windows
// establish a baseline), and draws any randomness from cfg.Rand only.

// lerpRates returns (1-alpha)*a + alpha*b. A convex combination of
// admissible matrices is admissible, which keeps every drift step stable.
func lerpRates(a, b [][]float64, alpha float64) [][]float64 {
	out := make([][]float64, len(a))
	for i := range a {
		out[i] = make([]float64, len(a[i]))
		for j := range a[i] {
			out[i][j] = (1-alpha)*a[i][j] + alpha*b[i][j]
		}
	}
	return out
}

// rotateCols returns m with every row's columns rotated right by k: the
// load input i aimed at output j moves to output (j+k) mod N.
func rotateCols(m [][]float64, k int) [][]float64 {
	n := len(m)
	out := make([][]float64, n)
	for i, row := range m {
		out[i] = make([]float64, n)
		for j, r := range row {
			out[i][(j+k)%n] = r
		}
	}
	return out
}

// measuredSlot places a fraction of the measured horizon on the absolute
// clock, clamped inside the run so BuildScenario's horizon check passes.
func measuredSlot(cfg registry.ScenarioConfig, frac float64) sim.Slot {
	at := cfg.Warmup + sim.Slot(frac*float64(cfg.Slots))
	if last := cfg.Warmup + cfg.Slots - 1; at > last {
		at = last
	}
	return at
}

func init() {
	registry.Scenarios.Register(registry.Scenario{
		Name:        "flashcrowd",
		Description: "a subset of inputs suddenly aims a surge of load at one hot output, then reverts",
		Rank:        10,
		Options: registry.Schema{
			registry.Float("at", 0.25,
				"event time as a fraction of the measured horizon").Between(0, 0.9),
			registry.Float("duration", 0.25,
				"crowd duration as a fraction of the measured horizon").Between(0.01, 1),
			registry.Float("inputs", 0.25,
				"fraction of inputs that join the crowd").Between(0, 1),
			registry.Float("surge", 0.9,
				"total load the crowd aims at the hot output (its column sum, so <= 1 stays admissible)").Between(0.01, 1),
		},
		Events: func(cfg registry.ScenarioConfig) ([]registry.Event, error) {
			n := cfg.N
			opts := cfg.Options
			k := int(math.Round(opts.Float("inputs") * float64(n)))
			if k < 1 {
				k = 1
			}
			hot := cfg.Rand.Intn(n)
			members := make(map[int]bool, k)
			for _, i := range cfg.Rand.Perm(n)[:k] {
				members[i] = true
			}
			surge := opts.Float("surge")
			crowd := make([][]float64, n)
			for i := 0; i < n; i++ {
				row := make([]float64, n)
				if members[i] {
					// A crowd member aims its share of the surge at the hot
					// output and spreads whatever remains of its nominal
					// load over the other outputs.
					row[hot] = surge / float64(k)
					if rest := cfg.Load - row[hot]; rest > 0 && n > 1 {
						for j := 0; j < n; j++ {
							if j != hot {
								row[j] = rest / float64(n-1)
							}
						}
					}
				} else {
					// Background inputs steer clear of the congested output
					// so the hot column sum stays exactly the surge; their
					// displaced load spreads over the remaining outputs.
					copy(row, cfg.Base[i])
					if n > 1 {
						spread := row[hot] / float64(n-1)
						row[hot] = 0
						for j := 0; j < n; j++ {
							if j != hot {
								row[j] += spread
							}
						}
					}
				}
				crowd[i] = row
			}
			at := measuredSlot(cfg, opts.Float("at"))
			events := []registry.Event{{At: at, Rates: crowd}}
			if end := at + sim.Slot(opts.Float("duration")*float64(cfg.Slots)); end < cfg.Warmup+cfg.Slots {
				events = append(events, registry.Event{At: end, Rates: NewMatrix(cfg.Base).Rows()})
			}
			return events, nil
		},
	})

	registry.Scenarios.Register(registry.Scenario{
		Name:        "ratedrift",
		Description: "the rate matrix drifts in steps from the base pattern toward its half-ring rotation",
		Rank:        20,
		Options: registry.Schema{
			registry.Int("steps", 8,
				"number of drift steps spread over the span").Between(1, 256),
			registry.Float("span", 1,
				"fraction of the measured horizon over which the drift completes").Between(0.05, 1),
		},
		Events: func(cfg registry.ScenarioConfig) ([]registry.Event, error) {
			steps := cfg.Options.Int("steps")
			span := cfg.Options.Float("span")
			target := rotateCols(cfg.Base, cfg.N/2)
			events := make([]registry.Event, 0, steps)
			for s := 1; s <= steps; s++ {
				alpha := float64(s) / float64(steps)
				events = append(events, registry.Event{
					At:    measuredSlot(cfg, span*alpha),
					Rates: lerpRates(cfg.Base, target, alpha),
				})
			}
			return events, nil
		},
	})

	registry.Scenarios.Register(registry.Scenario{
		Name:        "hotspotshift",
		Description: "a hotspot pattern whose hot output migrates around the ring during the run",
		Rank:        30,
		Options: registry.Schema{
			registry.Float("fraction", 0.5,
				"fraction of each input's load aimed at the current hotspot").Between(0, 1),
			registry.Int("hops", 4,
				"number of hotspot positions visited over the measured horizon").Between(1, 64),
		},
		Events: func(cfg registry.ScenarioConfig) ([]registry.Event, error) {
			hops := cfg.Options.Int("hops")
			frac := cfg.Options.Float("fraction")
			base := Hotspot(cfg.N, cfg.Load, frac).Rows()
			stride := cfg.N / hops
			if stride < 1 {
				stride = 1
			}
			events := make([]registry.Event, 0, hops)
			for h := 0; h < hops; h++ {
				events = append(events, registry.Event{
					At:    measuredSlot(cfg, float64(h)/float64(hops)),
					Rates: rotateCols(base, (h*stride)%cfg.N),
				})
			}
			return events, nil
		},
	})

	registry.Scenarios.Register(registry.Scenario{
		Name:        "linkfail",
		Description: "ingress fabric links degrade or fail mid-run, then recover to full capacity",
		Rank:        40,
		Options: registry.Schema{
			registry.Float("at", 0.3,
				"failure time as a fraction of the measured horizon").Between(0, 0.9),
			registry.Float("duration", 0.3,
				"outage duration as a fraction of the measured horizon").Between(0.01, 1),
			registry.Int("links", 1,
				"number of ingress links affected").AtLeast(1),
			registry.Float("factor", 0,
				"residual capacity of an affected link (0 = hard failure)").Between(0, 1),
		},
		Events: func(cfg registry.ScenarioConfig) ([]registry.Event, error) {
			links := cfg.Options.Int("links")
			if links > cfg.N {
				links = cfg.N
			}
			factor := cfg.Options.Float("factor")
			at := measuredSlot(cfg, cfg.Options.Float("at"))
			end := at + sim.Slot(cfg.Options.Float("duration")*float64(cfg.Slots))
			affected := cfg.Rand.Perm(cfg.N)[:links]
			var events []registry.Event
			for _, in := range affected {
				events = append(events, registry.Event{
					At:   at,
					Link: &registry.LinkChange{Input: in, Factor: factor},
				})
				if end < cfg.Warmup+cfg.Slots {
					events = append(events, registry.Event{
						At:   end,
						Link: &registry.LinkChange{Input: in, Factor: 1},
					})
				}
			}
			return events, nil
		},
	})

	registry.Scenarios.Register(registry.Scenario{
		Name:        "loadstep",
		Description: "the offered load square-waves between the nominal load and a reduced level",
		Rank:        50,
		Options: registry.Schema{
			registry.Int("steps", 4,
				"number of equal segments the measured horizon is split into").Between(2, 64),
			registry.Float("factor", 0.5,
				"load multiplier of the reduced segments").Between(0.05, 1),
		},
		Events: func(cfg registry.ScenarioConfig) ([]registry.Event, error) {
			steps := cfg.Options.Int("steps")
			factor := cfg.Options.Float("factor")
			base := NewMatrix(cfg.Base)
			low := base.Scale(factor)
			events := make([]registry.Event, 0, steps-1)
			for s := 1; s < steps; s++ {
				rates := base
				if s%2 == 1 {
					rates = low
				}
				events = append(events, registry.Event{
					At:    measuredSlot(cfg, float64(s)/float64(steps)),
					Rates: rates.Rows(),
				})
			}
			return events, nil
		},
	})
}
