package experiment

import (
	"context"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"sprinklers/internal/registry"
)

// optionedSpec is a small study that exercises per-series options on both
// axes: a PF threshold override and a hotspot fraction override.
func optionedSpec() Spec {
	return Spec{
		Name: "optioned",
		Kind: SimStudy,
		Algorithms: []AlgorithmSpec{
			{Name: PF, Options: registry.Options{"threshold": 4}},
			{Name: LoadBalanced},
		},
		Traffic: []TrafficSpec{
			{Name: HotspotTraffic, Options: registry.Options{"fraction": 0.75}},
		},
		Loads:    []float64{0.5},
		Sizes:    []int{8},
		Replicas: 1,
		Slots:    2000,
		Seed:     1,
	}
}

func TestSpecOptionsParseStringOrObject(t *testing.T) {
	s, err := ParseSpec(strings.NewReader(`{
		"algorithms": ["load-balanced", {"algorithm": "pf", "options": {"threshold": 4}}],
		"traffic": [{"traffic": "hotspot", "options": {"fraction": 0.75}}, "uniform"],
		"loads": [0.5], "sizes": [8], "slots": 2000
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if s.Algorithms[0].Name != LoadBalanced || s.Algorithms[0].Options != nil {
		t.Fatalf("string entry: %+v", s.Algorithms[0])
	}
	if s.Algorithms[1].Name != PF || s.Algorithms[1].Options["threshold"] != float64(4) {
		t.Fatalf("object entry: %+v", s.Algorithms[1])
	}
	if s.Traffic[0].Name != HotspotTraffic || s.Traffic[0].Options["fraction"] != 0.75 {
		t.Fatalf("traffic entry: %+v", s.Traffic[0])
	}
	if s = s.WithDefaults(); s.Validate() != nil {
		t.Fatalf("validate: %v", s.Validate())
	}

	for _, bad := range []string{
		`{"algorithms": [{"options": {}}], "traffic": ["uniform"], "loads": [0.5], "sizes": [8]}`,
		`{"algorithms": [{"algorithm": "pf", "optoins": {}}], "traffic": ["uniform"], "loads": [0.5], "sizes": [8]}`,
		`{"algorithms": ["pf"], "traffic": [{"trafic": "uniform"}], "loads": [0.5], "sizes": [8]}`,
	} {
		if _, err := ParseSpec(strings.NewReader(bad)); err == nil {
			t.Errorf("malformed entry accepted: %s", bad)
		}
	}
}

func TestSpecOptionsValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Spec)
		want   string
	}{
		{"unknown option", func(s *Spec) {
			s.Algorithms[0].Options = registry.Options{"treshold": 4}
		}, "unknown option"},
		{"out of range", func(s *Spec) {
			s.Traffic[0].Options = registry.Options{"fraction": 1.5}
		}, "outside [0, 1]"},
		{"options on optionless arch", func(s *Spec) {
			s.Algorithms[1].Options = registry.Options{"x": 1}
		}, "takes no options"},
		{"duplicate series", func(s *Spec) {
			s.Algorithms = append(s.Algorithms, AlgorithmSpec{Name: PF})
		}, "appears twice"},
		{"duplicate relabeled ok", func(s *Spec) {
			s.Algorithms = append(s.Algorithms, AlgorithmSpec{Name: PF, As: "pf-adaptive"})
		}, ""},
		{"size-coupled option caught at validate time", func(s *Spec) {
			s.Algorithms[0].Options = registry.Options{"threshold": 64} // sizes are [8]
		}, "threshold 64 exceeds N=8"},
	}
	for _, c := range cases {
		s := optionedSpec()
		c.mutate(&s)
		err := s.WithDefaults().Validate()
		if c.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", c.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want substring %q", c.name, err, c.want)
		}
	}
}

// TestAllSchemasRoundTripWithDefaults is the registry-completeness check on
// the spec surface: every registered architecture and workload, with its
// options at schema defaults, must (a) normalize deterministically, (b)
// survive Spec JSON marshal/parse unchanged, and (c) normalize idempotently
// — the exact properties checkpoint-header comparison relies on.
func TestAllSchemasRoundTripWithDefaults(t *testing.T) {
	for _, arch := range registry.Architectures.All() {
		s := Spec{
			Kind:       SimStudy,
			Algorithms: []AlgorithmSpec{{Name: Algorithm(arch.Name)}},
			Traffic:    Traffics(UniformTraffic),
			Loads:      []float64{0.5},
			Sizes:      []int{8},
		}.WithDefaults()
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", arch.Name, err)
			continue
		}
		if got, want := len(s.Algorithms[0].Options), len(arch.Options); got != want {
			t.Errorf("%s: %d options after defaults, schema has %d", arch.Name, got, want)
		}
		b, err := MarshalSpecIndent(s)
		if err != nil {
			t.Fatal(err)
		}
		back, err := ParseSpec(strings.NewReader(string(b)))
		if err != nil {
			t.Fatalf("%s: reparse: %v", arch.Name, err)
		}
		if !reflect.DeepEqual(s, back) {
			t.Errorf("%s: spec changed over JSON round trip:\nbefore %+v\nafter  %+v", arch.Name, s, back)
		}
		if again := back.WithDefaults(); !reflect.DeepEqual(s, again) {
			t.Errorf("%s: normalization not idempotent", arch.Name)
		}
	}
	for _, wl := range registry.Workloads.All() {
		s := Spec{
			Kind:       SimStudy,
			Algorithms: Algs(LoadBalanced),
			Traffic:    []TrafficSpec{{Name: TrafficKind(wl.Name)}},
			Loads:      []float64{0.5},
			Sizes:      []int{8},
		}.WithDefaults()
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", wl.Name, err)
			continue
		}
		if got, want := len(s.Traffic[0].Options), len(wl.Options); got != want {
			t.Errorf("%s: %d options after defaults, schema has %d", wl.Name, got, want)
		}
		b, err := MarshalSpecIndent(s)
		if err != nil {
			t.Fatal(err)
		}
		back, err := ParseSpec(strings.NewReader(string(b)))
		if err != nil {
			t.Fatalf("%s: reparse: %v", wl.Name, err)
		}
		if !reflect.DeepEqual(s, back) {
			t.Errorf("%s: spec changed over JSON round trip", wl.Name)
		}
	}
}

// TestRunStudyWithOptions runs the acceptance scenario end-to-end: a PF
// threshold and a hotspot fraction set purely through spec options, plus a
// same-architecture pair distinguished only by options and labels.
func TestRunStudyWithOptions(t *testing.T) {
	rs, err := RunStudy(context.Background(), optionedSpec(), StudyConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 {
		t.Fatalf("%d results", len(rs))
	}
	for _, r := range rs {
		if r.Delivered == 0 {
			t.Errorf("%s delivered nothing", r.PointKey)
		}
		if r.Traffic != TrafficKind("hotspot") {
			t.Errorf("traffic label %q", r.Traffic)
		}
	}

	// Two PF series with different thresholds in one spec: the labels keep
	// them distinct, and the thresholds must actually reach the switches —
	// a tiny threshold pads aggressively and delivers lower delay at light
	// load than a full-frame threshold.
	s := Spec{
		Name: "pf-threshold-sweep",
		Kind: SimStudy,
		Algorithms: []AlgorithmSpec{
			{Name: PF, As: "pf-2", Options: registry.Options{"threshold": 2}},
			{Name: PF, As: "pf-8", Options: registry.Options{"threshold": 8}},
		},
		Traffic:  Traffics(UniformTraffic),
		Loads:    []float64{0.2},
		Sizes:    []int{8},
		Replicas: 1,
		Slots:    20000,
		Seed:     1,
	}
	rs, err = RunStudy(context.Background(), s, StudyConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].Algorithm != "pf-2" || rs[1].Algorithm != "pf-8" {
		t.Fatalf("series labels: %q, %q", rs[0].Algorithm, rs[1].Algorithm)
	}
	if !(rs[0].MeanDelay < rs[1].MeanDelay) {
		t.Errorf("threshold option had no effect: pf-2 delay %v, pf-8 delay %v",
			rs[0].MeanDelay, rs[1].MeanDelay)
	}
}

// TestResumeRejectsOptionDrift: a checkpoint records the normalized options
// in its header; resuming the same grid under different options must fail.
func TestResumeRejectsOptionDrift(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.jsonl")
	stopAt(t, optionedSpec(), StudyConfig{ResultsPath: path, Parallelism: 1}, 1)
	drifted := optionedSpec()
	drifted.Algorithms[0].Options = registry.Options{"threshold": 6}
	if _, err := RunStudy(context.Background(), drifted, StudyConfig{ResultsPath: path}); err == nil {
		t.Fatal("checkpoint with different algorithm options must be rejected")
	}
	driftedT := optionedSpec()
	driftedT.Traffic[0].Options = registry.Options{"fraction": 0.5}
	if _, err := RunStudy(context.Background(), driftedT, StudyConfig{ResultsPath: path}); err == nil {
		t.Fatal("checkpoint with different traffic options must be rejected")
	}
	// The unchanged spec still resumes.
	if _, err := RunStudy(context.Background(), optionedSpec(), StudyConfig{ResultsPath: path}); err != nil {
		t.Fatalf("identical spec failed to resume: %v", err)
	}
}
