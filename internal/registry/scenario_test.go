package registry

import (
	"math/rand"
	"strings"
	"testing"
)

// The test scenarios are registered once for the whole package; names are
// prefixed so they cannot collide with real registrations.
func init() {
	Scenarios.Register(Scenario{
		Name:        "test-scn-basic",
		Description: "swaps to a scaled matrix halfway through",
		Rank:        1000,
		Options: Schema{
			Float("factor", 0.5, "scale factor").Between(0, 1),
		},
		Events: func(cfg ScenarioConfig) ([]Event, error) {
			f := cfg.Options.Float("factor")
			rates := make([][]float64, cfg.N)
			for i := range rates {
				rates[i] = make([]float64, cfg.N)
				for j := range rates[i] {
					rates[i][j] = cfg.Base[i][j] * f
				}
			}
			// Deliberately out of order: BuildScenario must sort.
			return []Event{
				{At: cfg.Warmup + cfg.Slots/2, Rates: rates},
				{At: cfg.Warmup, Link: &LinkChange{Input: 0, Factor: 0.5}},
			}, nil
		},
	})
	Scenarios.Register(Scenario{
		Name:        "test-scn-bad",
		Description: "emits whatever event the options ask for (invalid on purpose)",
		Rank:        1001,
		Options: Schema{
			String("mode", "late", "which invalid event to emit").
				OneOf("late", "both", "neither", "badmatrix", "badlink", "badfactor"),
		},
		Events: func(cfg ScenarioConfig) ([]Event, error) {
			ok := [][]float64{{0, 0}, {0, 0}}
			switch cfg.Options.String("mode") {
			case "late":
				return []Event{{At: cfg.Warmup + cfg.Slots, Rates: ok}}, nil
			case "both":
				return []Event{{At: 0, Rates: ok, Link: &LinkChange{Input: 0, Factor: 1}}}, nil
			case "neither":
				return []Event{{At: 0}}, nil
			case "badmatrix":
				return []Event{{At: 0, Rates: [][]float64{{0}}}}, nil
			case "badlink":
				return []Event{{At: 0, Link: &LinkChange{Input: 99, Factor: 1}}}, nil
			default: // badfactor
				return []Event{{At: 0, Link: &LinkChange{Input: 0, Factor: 2}}}, nil
			}
		},
	})
}

func testScenarioConfig() ScenarioConfig {
	return ScenarioConfig{
		N:      2,
		Load:   0.5,
		Base:   [][]float64{{0.25, 0.25}, {0.25, 0.25}},
		Warmup: 100,
		Slots:  1000,
		Rand:   rand.New(rand.NewSource(1)),
	}
}

func TestBuildScenarioSortsAndNormalizes(t *testing.T) {
	events, err := BuildScenario("test-scn-basic", testScenarioConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatalf("got %d events", len(events))
	}
	if events[0].At != 100 || events[0].Link == nil {
		t.Fatalf("events not sorted by At: first is %+v", events[0])
	}
	if events[1].Rates[0][0] != 0.125 {
		t.Fatalf("default option not applied: rate %v", events[1].Rates[0][0])
	}
	// Explicit option overrides the default.
	events, err = BuildScenario("test-scn-basic", testScenarioConfig(), map[string]any{"factor": 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if events[1].Rates[0][0] != 0.25 {
		t.Fatalf("option override not applied: rate %v", events[1].Rates[0][0])
	}
}

func TestBuildScenarioRejections(t *testing.T) {
	cases := []struct {
		name string
		opts map[string]any
		want string
	}{
		{"nope", nil, "unknown scenario"},
		{"test-scn-basic", map[string]any{"factor": 7}, "outside"},
		{"test-scn-basic", map[string]any{"bogus": 1}, "unknown option"},
		{"test-scn-bad", map[string]any{"mode": "late"}, "outside horizon"},
		{"test-scn-bad", map[string]any{"mode": "both"}, "both rates and link"},
		{"test-scn-bad", map[string]any{"mode": "neither"}, "neither rates nor link"},
		{"test-scn-bad", map[string]any{"mode": "badmatrix"}, "want 2x2"},
		{"test-scn-bad", map[string]any{"mode": "badlink"}, "outside [0, 2)"},
		{"test-scn-bad", map[string]any{"mode": "badfactor"}, "factor 2"},
	}
	for _, c := range cases {
		_, err := BuildScenario(c.name, testScenarioConfig(), c.opts)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("BuildScenario(%s, %v): err %v, want substring %q", c.name, c.opts, err, c.want)
		}
	}
}

func TestScenarioRegistrationPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("missing builder", func() {
		Scenarios.Register(Scenario{Name: "test-scn-nobuilder"})
	})
	mustPanic("duplicate", func() {
		Scenarios.Register(Scenario{
			Name:   "test-scn-basic",
			Events: func(ScenarioConfig) ([]Event, error) { return nil, nil },
		})
	})
	mustPanic("bad schema", func() {
		Scenarios.Register(Scenario{
			Name:    "test-scn-badschema",
			Options: Schema{Float("x", 5, "out of own bounds").Between(0, 1)},
			Events:  func(ScenarioConfig) ([]Event, error) { return nil, nil },
		})
	})
}

func TestScenarioCatalogAndOrder(t *testing.T) {
	idx := map[string]int{}
	for i, n := range Scenarios.Names() {
		idx[n] = i
	}
	if _, ok := idx["test-scn-basic"]; !ok {
		t.Fatal("test scenario missing from catalog")
	}
	if idx["test-scn-basic"] > idx["test-scn-bad"] {
		t.Error("rank order not respected")
	}
	var b strings.Builder
	WriteCatalog(&b)
	out := b.String()
	for _, want := range []string{"scenarios:", "test-scn-basic", "factor (float, default 0.5) in [0, 1]"} {
		if !strings.Contains(out, want) {
			t.Errorf("catalog missing %q:\n%s", want, out)
		}
	}
}

// TestBuildScenarioEventSlotRange pins the horizon contract: an event on
// the last slot of the run is legal, one past it is not.
func TestBuildScenarioEventSlotRange(t *testing.T) {
	cfg := testScenarioConfig()
	total := cfg.Warmup + cfg.Slots
	Scenarios.Register(Scenario{
		Name: "test-scn-lastslot",
		Rank: 1002,
		Events: func(cfg ScenarioConfig) ([]Event, error) {
			return []Event{{At: cfg.Warmup + cfg.Slots - 1, Link: &LinkChange{Input: 0, Factor: 1}}}, nil
		},
	})
	t.Cleanup(func() { Scenarios.unregister("test-scn-lastslot") })
	events, err := BuildScenario("test-scn-lastslot", cfg, nil)
	if err != nil {
		t.Fatalf("event on last slot rejected: %v", err)
	}
	if events[0].At != total-1 {
		t.Fatalf("event at %d, want %d", events[0].At, total-1)
	}
}
