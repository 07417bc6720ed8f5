package experiment

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"sprinklers/internal/registry"
	"sprinklers/internal/sim"
	"sprinklers/internal/stats"
)

// flashSpec is the small scenario-bearing study the scenario-path tests
// share: two series of one architecture (static and adaptive), one
// scenario, windowed collection.
func flashSpec() Spec {
	return Spec{
		Name: "scenario-test", Kind: SimStudy,
		Algorithms: []AlgorithmSpec{
			{Name: Sprinklers},
			{Name: Sprinklers, As: "adaptive", Options: registry.Options{
				"adaptive": true, "adaptive-window": 512, "adaptive-hold": 1,
			}},
		},
		Traffic:   Traffics(UniformTraffic),
		Scenarios: []ScenarioSpec{{Name: FlashCrowd}},
		Loads:     []float64{0.4, 0.7},
		Sizes:     []int{8},
		Replicas:  2,
		Slots:     1_500,
		Windows:   3,
		Seed:      11,
	}
}

func TestScenarioSpecRoundTrip(t *testing.T) {
	spec := flashSpec().WithDefaults()
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	b, err := MarshalSpecIndent(spec)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseSpec(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.WithDefaults(), spec) {
		t.Fatalf("scenario spec did not survive a JSON round trip:\n%s", b)
	}
	// Normalization must have baked the scenario option defaults in.
	if spec.Scenarios[0].Options["surge"] != 0.9 {
		t.Fatalf("scenario defaults not normalized: %+v", spec.Scenarios[0].Options)
	}
}

func TestScenarioSpecValidation(t *testing.T) {
	cases := []struct {
		mutate func(*Spec)
		want   string
	}{
		{func(s *Spec) { s.Scenarios[0].Name = "nope" }, "unknown scenario"},
		{func(s *Spec) { s.Scenarios = append(s.Scenarios, s.Scenarios[0]) }, "appears twice"},
		{func(s *Spec) { s.Scenarios[0].Options = registry.Options{"surge": 5.0} }, "outside"},
		{func(s *Spec) { s.Windows = -1 }, "windows -1"},
		{func(s *Spec) { s.Windows = 100000 }, "do not fit"},
	}
	for i, c := range cases {
		spec := flashSpec()
		c.mutate(&spec)
		spec = spec.WithDefaults()
		err := spec.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("case %d: err %v, want substring %q", i, err, c.want)
		}
	}
	// Scenarios and windows are sim-only.
	mk := Spec{Kind: MarkovStudy, Loads: []float64{0.9}, Sizes: []int{8},
		Scenarios: []ScenarioSpec{{Name: FlashCrowd}}}
	if err := mk.WithDefaults().Validate(); err == nil || !strings.Contains(err.Error(), "no scenarios") {
		t.Errorf("markov study accepted scenarios: %v", err)
	}
}

func TestScenarioPointsOrder(t *testing.T) {
	spec := flashSpec()
	spec.Scenarios = append(spec.Scenarios, ScenarioSpec{Name: LinkFail})
	keys := spec.WithDefaults().Points()
	// algorithms (2) x traffic (1) x sizes (1) x bursts (1) x scenarios (2)
	// x loads (2)
	if len(keys) != 8 {
		t.Fatalf("grid size %d, want 8", len(keys))
	}
	want := []PointKey{
		{Algorithm: Sprinklers, Traffic: UniformTraffic, Scenario: FlashCrowd, N: 8, Load: 0.4},
		{Algorithm: Sprinklers, Traffic: UniformTraffic, Scenario: FlashCrowd, N: 8, Load: 0.7},
		{Algorithm: Sprinklers, Traffic: UniformTraffic, Scenario: LinkFail, N: 8, Load: 0.4},
		{Algorithm: Sprinklers, Traffic: UniformTraffic, Scenario: LinkFail, N: 8, Load: 0.7},
	}
	for i, w := range want {
		if keys[i] != w {
			t.Fatalf("point %d is %v, want %v", i, keys[i], w)
		}
	}
	if !strings.Contains(keys[0].String(), "scenario=flashcrowd") {
		t.Errorf("point key string misses scenario: %s", keys[0])
	}
}

func TestRunStudyScenarioWindows(t *testing.T) {
	results, err := RunStudy(context.Background(), flashSpec(), StudyConfig{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Scenario != FlashCrowd {
			t.Fatalf("point %s missing scenario label", r.PointKey)
		}
		if len(r.Windows) != 3 {
			t.Fatalf("point %s has %d windows, want 3", r.PointKey, len(r.Windows))
		}
		if r.Delivered == 0 {
			t.Fatalf("point %s delivered nothing", r.PointKey)
		}
		var delivered int64
		for _, w := range r.Windows {
			delivered += w.Delivered
		}
		if delivered != r.Delivered {
			t.Fatalf("point %s: window deliveries %d != total %d (replica aggregation broken)",
				r.PointKey, delivered, r.Delivered)
		}
	}
}

// TestScenarioResumeRejectsOptionDrift: a checkpoint started with one
// scenario option assignment must refuse to resume under another.
func TestScenarioResumeRejectsOptionDrift(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "results.jsonl")
	spec := flashSpec()
	if _, err := RunStudy(context.Background(), spec, StudyConfig{ResultsPath: path, HaltAfterPoints: 1}); err != ErrHalted {
		t.Fatalf("halt run: %v", err)
	}
	drifted := flashSpec()
	drifted.Scenarios[0].Options = registry.Options{"surge": 0.5}
	_, err := RunStudy(context.Background(), drifted, StudyConfig{ResultsPath: path})
	if err == nil || !strings.Contains(err.Error(), "different study") {
		t.Fatalf("drifted scenario options resumed a foreign checkpoint: %v", err)
	}
	// The original spec still resumes cleanly.
	if _, err := RunStudy(context.Background(), spec, StudyConfig{ResultsPath: path}); err != nil {
		t.Fatalf("legitimate resume failed: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"windows":[{`) {
		t.Error("checkpoint lines carry no window series")
	}
}

// TestDriftAllScenariosMatchRegistry: every scenario constant names a
// registered scenario.
func TestDriftAllScenariosMatchRegistry(t *testing.T) {
	for _, k := range []ScenarioKind{FlashCrowd, RateDrift, HotspotShift, LinkFail, LoadStep} {
		if _, ok := registry.LookupScenario(string(k)); !ok {
			t.Errorf("scenario constant %q is not registered", k)
		}
	}
}

// TestRenderTrajectoryRaggedWindows: results merged from runs with
// different window counts must render with dashes, not panic.
func TestRenderTrajectoryRaggedWindows(t *testing.T) {
	mk := func(alg Algorithm, n int) PointResult {
		r := PointResult{PointKey: PointKey{Algorithm: alg, Traffic: UniformTraffic, Scenario: FlashCrowd, N: 8, Load: 0.5}, Replicas: 1}
		for i := 0; i < n; i++ {
			r.Windows = append(r.Windows, stats.WindowPoint{
				Window: i, Start: sim.Slot(i * 100), End: sim.Slot((i + 1) * 100), MeanDelay: float64(10 + i),
			})
		}
		return r
	}
	var b strings.Builder
	RenderTrajectory(&b, []PointResult{mk(Sprinklers, 2), mk(LoadBalanced, 4)})
	out := b.String()
	if !strings.Contains(out, "-") || !strings.Contains(out, "13.0") {
		t.Fatalf("ragged trajectory misrendered:\n%s", out)
	}
	if lines := strings.Count(out, "\n"); lines < 7 {
		t.Fatalf("expected 4 window rows plus headers/recovery, got:\n%s", out)
	}
}
