package experiment

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"sprinklers/internal/registry"
)

func TestParseSeries(t *testing.T) {
	algs, err := parseSeries[Algorithm]([]string{
		"sprinklers",
		"sprinklers:adaptive=true,adaptive-window=1024",
		"pf:threshold=16",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(algs) != 3 {
		t.Fatalf("parsed %d entries, want 3", len(algs))
	}
	if algs[0].Name != Sprinklers || algs[0].As != "" || algs[0].Options != nil {
		t.Errorf("plain entry = %+v", algs[0])
	}
	want := registry.Options{"adaptive": true, "adaptive-window": float64(1024)}
	if algs[1].Name != Sprinklers || !reflect.DeepEqual(algs[1].Options, want) {
		t.Errorf("optioned entry = %+v, want options %v", algs[1], want)
	}
	if algs[1].As != "sprinklers:adaptive=true,adaptive-window=1024" {
		t.Errorf("optioned entry label = %q, want the full entry text", algs[1].As)
	}
	if algs[1].label() == algs[0].label() {
		t.Error("optioned and plain variants of one architecture share a label")
	}

	if _, err := parseSeries[Algorithm]([]string{"pf:threshold"}); err == nil {
		t.Error("malformed option assignment accepted")
	}

	traffic, err := parseSeries[TrafficKind]([]string{"hotspot:fraction=0.75"})
	if err != nil {
		t.Fatal(err)
	}
	if traffic[0].Name != HotspotTraffic || traffic[0].Options["fraction"] != 0.75 {
		t.Errorf("traffic entry = %+v", traffic[0])
	}

	scs, err := parseSeries[ScenarioKind]([]string{"flashcrowd", "loadstep:factor=1.5"})
	if err != nil {
		t.Fatal(err)
	}
	if scs[0].Name != FlashCrowd || scs[0].Options != nil || scs[1].Options["factor"] != 1.5 {
		t.Errorf("scenario entries = %+v", scs)
	}
}

func TestSplitListRespectsSeriesOptions(t *testing.T) {
	got := splitList("sprinklers:adaptive=true,adaptive-hold=1,foff, pf:threshold=16 ")
	want := []string{"sprinklers:adaptive=true,adaptive-hold=1", "foff", "pf:threshold=16"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("splitList = %q, want %q", got, want)
	}
	// Two optioned variants of one architecture in a single flag — each
	// "name:key=value" field starts a new series, it does not merge into
	// the previous entry's option list.
	got = splitList("pf:threshold=64,pf:threshold=32")
	want = []string{"pf:threshold=64", "pf:threshold=32"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("splitList = %q, want %q", got, want)
	}
	algs, err := parseSeries[Algorithm](got)
	if err != nil {
		t.Fatal(err)
	}
	if len(algs) != 2 || algs[0].Options["threshold"] != float64(64) || algs[1].Options["threshold"] != float64(32) {
		t.Errorf("two-variant parse = %+v", algs)
	}
}

func TestBuildSpecPrecedence(t *testing.T) {
	// Builtin + scalar overrides.
	spec, err := BuildSpec(SpecArgs{Builtin: "smoke", Replicas: 5, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name != "smoke" || spec.Replicas != 5 || spec.Seed != 9 {
		t.Errorf("builtin with overrides = %+v", spec)
	}

	// Flag-assembled grid with optioned series and scenarios.
	spec, err = BuildSpec(SpecArgs{
		Name: "flags", Kind: "sim",
		Algs:      "sprinklers:adaptive=true,foff",
		Traffic:   "uniform",
		NS:        "8,16",
		Loads:     "0.4,0.8",
		Scenarios: "flashcrowd",
		Windows:   6,
		Slots:     3000,
	})
	if err != nil {
		t.Fatal(err)
	}
	spec = spec.WithDefaults()
	if err := spec.Validate(); err != nil {
		t.Fatalf("flag-built spec invalid: %v", err)
	}
	if len(spec.Algorithms) != 2 || spec.Algorithms[0].Options["adaptive"] != true {
		t.Errorf("algorithms = %+v", spec.Algorithms)
	}
	if len(spec.Sizes) != 2 || len(spec.Loads) != 2 || spec.Windows != 6 {
		t.Errorf("grids = sizes %v loads %v windows %d", spec.Sizes, spec.Loads, spec.Windows)
	}
	if len(spec.Scenarios) != 1 || spec.Scenarios[0].Name != FlashCrowd {
		t.Errorf("scenarios = %+v", spec.Scenarios)
	}

	// Spec file wins over flags; overrides still apply.
	dir := t.TempDir()
	path := filepath.Join(dir, "spec.json")
	inner, _ := BuildSpec(SpecArgs{Builtin: "smoke"})
	b, err := MarshalSpecIndent(inner)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	spec, err = BuildSpec(SpecArgs{SpecPath: path, Builtin: "fig6", Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name != "smoke" || spec.Replicas != 2 {
		t.Errorf("spec-file precedence broken: %+v", spec)
	}

	// "all" resolves through the registry.
	spec, err = BuildSpec(SpecArgs{Algs: "all", NS: "8"})
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Algorithms) != len(AllAlgorithms()) {
		t.Errorf("algs=all built %d series, registry has %d", len(spec.Algorithms), len(AllAlgorithms()))
	}

	// Series and size flags override a builtin, as the grid flags do.
	spec, err = BuildSpec(SpecArgs{Builtin: "flashcrowd", NS: "16", Algs: "foff,sprinklers:adaptive=true", Traffic: "diagonal"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.Sizes, []int{16}) {
		t.Errorf("builtin with -ns 16: sizes %v", spec.Sizes)
	}
	if len(spec.Algorithms) != 2 || spec.Algorithms[0].Name != FOFF || spec.Algorithms[1].Options["adaptive"] != true {
		t.Errorf("builtin with -algs: algorithms %+v", spec.Algorithms)
	}
	if len(spec.Traffic) != 1 || spec.Traffic[0].Name != DiagonalTraffic {
		t.Errorf("builtin with -traffic: traffic %+v", spec.Traffic)
	}
	if len(spec.Scenarios) != 1 || spec.Scenarios[0].Name != FlashCrowd {
		t.Errorf("builtin's own scenarios lost: %+v", spec.Scenarios)
	}

	// -name and -kind only seed a flag-built spec; with a spec file or a
	// builtin they are an error naming the flag, not silently dropped.
	for _, c := range []struct {
		flag string
		args SpecArgs
	}{
		{"-kind", SpecArgs{Builtin: "smoke", Kind: "markov"}},
		{"-name", SpecArgs{Builtin: "smoke", Name: "mine"}},
		{"-kind", SpecArgs{SpecPath: path, Kind: "sim"}},
	} {
		_, err := BuildSpec(c.args)
		if err == nil || !strings.Contains(err.Error(), c.flag) {
			t.Errorf("%+v: err %v, want one naming %s", c.args, err, c.flag)
		}
	}

	// A flag-built spec with no -ns or -traffic gets N = 32 and uniform.
	spec, err = BuildSpec(SpecArgs{Algs: "sprinklers"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.Sizes, []int{32}) || len(spec.Traffic) != 1 || spec.Traffic[0].Name != UniformTraffic {
		t.Errorf("flag-built defaults: sizes %v traffic %+v", spec.Sizes, spec.Traffic)
	}
	if spec.Kind != SimStudy || !reflect.DeepEqual(spec.Loads, PaperLoads) {
		t.Errorf("flag-built defaults: kind %q loads %v", spec.Kind, spec.Loads)
	}

	// Unknown builtin and bad grids fail loudly.
	if _, err := BuildSpec(SpecArgs{Builtin: "nope"}); err == nil {
		t.Error("unknown builtin accepted")
	}
	if _, err := BuildSpec(SpecArgs{NS: "eight"}); err == nil {
		t.Error("bad size list accepted")
	}
	if _, err := BuildSpec(SpecArgs{NS: "8", Loads: "high"}); err == nil {
		t.Error("bad load list accepted")
	}

	// A negative scalar override is applied, not skipped, so Validate
	// rejects it instead of the study silently running the builtin's value.
	for _, a := range []SpecArgs{
		{Builtin: "smoke", Windows: -1},
		{Builtin: "smoke", Replicas: -2},
		{Builtin: "smoke", Slots: -5},
		{Builtin: "smoke", Warmup: -9},
		{Builtin: "fig5", Replicas: -2},
	} {
		spec, err := BuildSpec(a)
		if err != nil {
			t.Fatal(err)
		}
		if err := spec.WithDefaults().Validate(); err == nil {
			t.Errorf("%+v: negative override accepted", a)
		}
	}
}

func TestFormatSeriesHelp(t *testing.T) {
	if got := FormatSeriesHelp("algorithm"); got == "" || !reflect.DeepEqual(got, "comma-separated algorithm series: name or name:key=value,key=value") {
		t.Errorf("FormatSeriesHelp = %q", got)
	}
}
