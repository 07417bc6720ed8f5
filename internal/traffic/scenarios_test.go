package traffic

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"sprinklers/internal/registry"
	"sprinklers/internal/sim"
)

// builtinScenarios are the scenarios scenarios.go registers, in canonical
// (rank) order.
var builtinScenarios = []string{"flashcrowd", "ratedrift", "hotspotshift", "linkfail", "loadstep"}

// TestScenarioEventsWithinHorizon pins that every builtin places events on
// the absolute clock inside [0, warmup+slots) for a variety of horizons.
func TestScenarioEventsWithinHorizon(t *testing.T) {
	for _, sc := range registry.Scenarios.All() {
		for _, horizon := range []sim.Slot{100, 1000, 65536} {
			base := make([][]float64, 4)
			for i := range base {
				base[i] = []float64{0.1, 0.1, 0.1, 0.1}
			}
			events, err := registry.BuildScenario(sc.Name, registry.ScenarioConfig{
				N: 4, Load: 0.4, Base: base,
				Warmup: horizon / 5, Slots: horizon,
				Rand: rand.New(rand.NewSource(1)),
			}, nil)
			if err != nil {
				t.Fatalf("%s at horizon %d: %v", sc.Name, horizon, err)
			}
			if len(events) == 0 {
				t.Fatalf("%s at horizon %d: no events", sc.Name, horizon)
			}
		}
	}
}

// TestFlashcrowdStaysAdmissible: every matrix a flash crowd emits must keep
// all row and column sums at or below 1, or the crowd window would be
// unconditionally unstable instead of a tracking problem.
func TestFlashcrowdStaysAdmissible(t *testing.T) {
	for _, load := range []float64{0.5, 0.9} {
		events, err := registry.BuildScenario("flashcrowd", registry.ScenarioConfig{
			N: 16, Load: load, Base: Uniform(16, load).Rows(), Warmup: 1000, Slots: 10000,
			Rand: rand.New(rand.NewSource(2)),
		}, map[string]any{"surge": 1.0, "inputs": 0.5})
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range events {
			if e.Rates == nil {
				continue
			}
			for i, row := range e.Rates {
				var rs float64
				for _, r := range row {
					rs += r
				}
				if rs > 1+1e-9 {
					t.Fatalf("load %v: row %d sum %v oversubscribed", load, i, rs)
				}
			}
			for j := range e.Rates {
				var cs float64
				for i := range e.Rates {
					cs += e.Rates[i][j]
				}
				if cs > 1+1e-9 {
					t.Fatalf("load %v: column %d sum %v oversubscribed", load, j, cs)
				}
			}
		}
	}
}

// TestCatalogListsBuiltinScenarios: the text catalog behind every tool's
// -list renders a scenarios: section naming the five builtins in canonical
// order, each followed by one line per option of its schema.
func TestCatalogListsBuiltinScenarios(t *testing.T) {
	var buf bytes.Buffer
	registry.WriteCatalog(&buf)
	_, section, ok := strings.Cut(buf.String(), "\nscenarios:\n")
	if !ok {
		t.Fatalf("catalog has no scenarios: section:\n%s", buf.String())
	}
	var names []string
	opts := map[string][]string{}
	for _, line := range strings.Split(section, "\n") {
		if line != "" && !strings.HasPrefix(line, "  ") {
			break // the next section
		}
		switch {
		case strings.HasPrefix(line, "      "):
			if len(names) == 0 {
				t.Fatalf("option line before any scenario: %q", line)
			}
			last := names[len(names)-1]
			opts[last] = append(opts[last], strings.Fields(line)[0])
		case strings.HasPrefix(line, "  "):
			names = append(names, strings.Fields(line)[0])
		}
	}
	if !reflect.DeepEqual(names, builtinScenarios) {
		t.Fatalf("catalog lists scenarios %v, want %v", names, builtinScenarios)
	}
	for _, name := range names {
		sc, _ := registry.Scenarios.Lookup(name)
		var want []string
		for _, o := range sc.Options {
			want = append(want, o.Name)
		}
		if !reflect.DeepEqual(opts[name], want) {
			t.Errorf("catalog lists %s options %v, want %v", name, opts[name], want)
		}
	}
}
