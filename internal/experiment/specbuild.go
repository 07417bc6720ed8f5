package experiment

import (
	"fmt"
	"strings"

	"sprinklers/internal/registry"
	"sprinklers/internal/sim"
)

// This file is the one place CLI flags become a Spec. cmd/sweep,
// cmd/scenario and cmd/sprinklersim all accept the same series syntax —
// a registered name, optionally followed by a colon and comma-separated
// key=value options ("sprinklers:adaptive=true,adaptive-window=1024") —
// and the same precedence rules (an explicit -spec file wins, then a
// builtin, then flag-assembled grids, with scalar flags overriding
// whatever the spec carries). Before this lived here, each tool carried
// its own slightly-divergent copy.

// ParseAlgorithmSeries parses CLI series entries into algorithm spec
// entries. Each entry is "name" or "name:key=value,..."; optioned entries
// keep the full text as their series label so two option variants of one
// architecture stay distinct within a study.
func ParseAlgorithmSeries(entries []string) ([]AlgorithmSpec, error) {
	var out []AlgorithmSpec
	for _, entry := range entries {
		name, opts, err := registry.ParseSeriesEntry(entry)
		if err != nil {
			return nil, err
		}
		a := AlgorithmSpec{Name: Algorithm(name), Options: opts}
		if len(opts) > 0 {
			a.As = entry
		}
		out = append(out, a)
	}
	return out, nil
}

// ParseTrafficSeries parses CLI series entries into workload spec entries,
// with the same syntax and labeling rules as ParseAlgorithmSeries.
func ParseTrafficSeries(entries []string) ([]TrafficSpec, error) {
	var out []TrafficSpec
	for _, entry := range entries {
		name, opts, err := registry.ParseSeriesEntry(entry)
		if err != nil {
			return nil, err
		}
		t := TrafficSpec{Name: TrafficKind(name), Options: opts}
		if len(opts) > 0 {
			t.As = entry
		}
		out = append(out, t)
	}
	return out, nil
}

// ParseScenarioSeries parses CLI series entries into scenario spec entries,
// with the same syntax and labeling rules as ParseAlgorithmSeries.
func ParseScenarioSeries(entries []string) ([]ScenarioSpec, error) {
	var out []ScenarioSpec
	for _, entry := range entries {
		name, opts, err := registry.ParseSeriesEntry(entry)
		if err != nil {
			return nil, err
		}
		s := ScenarioSpec{Name: ScenarioKind(name), Options: opts}
		if len(opts) > 0 {
			s.As = entry
		}
		out = append(out, s)
	}
	return out, nil
}

// SpecArgs is the flag surface shared by the study CLIs, in string form as
// the flags deliver it. Zero values mean "not set".
type SpecArgs struct {
	// SpecPath loads a JSON spec file and wins over everything but the
	// scalar overrides; Builtin resolves a named built-in study next.
	SpecPath string
	Builtin  string
	// Name and Kind seed a flag-assembled spec (Kind defaults to "sim").
	Name string
	Kind string
	// Algs, Traffic and Scenarios are comma-separated series lists in the
	// shared series syntax. Algs additionally accepts "" / "paper" (the
	// Fig. 6 set) and "all" (every registered architecture). Scenarios
	// overrides the spec when set.
	Algs      string
	Traffic   string
	Scenarios string
	// NS, Loads and Bursts are comma-separated grids; Loads and Bursts
	// override the spec when set.
	NS     string
	Loads  string
	Bursts string
	// The scalar overrides: applied last when non-zero, on top of whatever
	// the spec or builtin carries, so "fig6 with error bars" is just
	// `sweep -builtin fig6 -replicas 5`. A negative value is applied too,
	// for Spec.Validate to reject.
	Windows  int
	Replicas int
	Slots    int64
	Warmup   int64
	Seed     int64
}

// BuildSpec resolves the study spec from the shared flag surface: an
// explicit spec file wins, then a builtin, then a spec assembled from the
// grid flags; the scalar overrides apply last in every case.
func BuildSpec(a SpecArgs) (Spec, error) {
	var spec Spec
	switch {
	case a.SpecPath != "":
		s, err := LoadSpec(a.SpecPath)
		if err != nil {
			return spec, err
		}
		spec = s
	case a.Builtin != "":
		s, err := BuiltinSpec(a.Builtin)
		if err != nil {
			return spec, err
		}
		spec = s
	default:
		spec = Spec{
			Name: a.Name,
			Kind: SpecKind(a.Kind),
		}
		if spec.Kind == "" {
			spec.Kind = SimStudy
		}
		if spec.simLike() {
			switch a.Algs {
			case "", "paper":
				spec.Algorithms = Algs(Fig6Algorithms...)
			case "all":
				spec.Algorithms = Algs(AllAlgorithms()...)
			default:
				algs, err := ParseAlgorithmSeries(splitList(a.Algs))
				if err != nil {
					return spec, err
				}
				spec.Algorithms = algs
			}
			tr := a.Traffic
			if tr == "" {
				tr = string(UniformTraffic)
			}
			traffic, err := ParseTrafficSeries(splitList(tr))
			if err != nil {
				return spec, err
			}
			spec.Traffic = traffic
		}
		ns, err := ParseIntList(a.NS)
		if err != nil {
			return spec, err
		}
		spec.Sizes = ns
		spec.Loads = PaperLoads
	}
	if a.Bursts != "" {
		bs, err := ParseFloatList(a.Bursts)
		if err != nil {
			return spec, err
		}
		spec.Bursts = bs
	}
	if a.Scenarios != "" {
		scs, err := ParseScenarioSeries(splitList(a.Scenarios))
		if err != nil {
			return spec, err
		}
		spec.Scenarios = scs
	}
	if a.Windows != 0 {
		spec.Windows = a.Windows
	}
	if a.Loads != "" {
		ls, err := ParseFloatList(a.Loads)
		if err != nil {
			return spec, err
		}
		spec.Loads = ls
	}
	if a.Replicas != 0 {
		spec.Replicas = a.Replicas
	}
	if a.Slots != 0 {
		spec.Slots = sim.Slot(a.Slots)
	}
	if a.Warmup != 0 {
		spec.Warmup = sim.Slot(a.Warmup)
	}
	if a.Seed != 0 {
		spec.Seed = a.Seed
	}
	return spec, nil
}

// splitList splits a comma-separated flag into trimmed entries. The series
// option syntax also uses commas ("name:a=1,b=2"), so a colon-bearing
// entry consumes the following comma-separated key=value fields until the
// next field that starts a new entry — which is what lets
// "-algs sprinklers:adaptive=true,adaptive-hold=1,foff" mean two series.
func splitList(s string) []string {
	fields := strings.Split(s, ",")
	var out []string
	for _, f := range fields {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		if len(out) > 0 && strings.Contains(out[len(out)-1], ":") && isOptionField(f) {
			out[len(out)-1] += "," + f
			continue
		}
		out = append(out, f)
	}
	return out
}

// isOptionField reports whether a comma-separated field continues the
// previous entry's option list (a bare "key=value") rather than starting a
// new series. "name:key=value" starts a new optioned entry — its colon
// precedes the '=' — so "pf:threshold=64,pf:threshold=32" stays two
// series while "pf:threshold=64,mode=x" stays one.
func isOptionField(f string) bool {
	eq := strings.Index(f, "=")
	if eq < 0 {
		return false
	}
	colon := strings.Index(f, ":")
	return colon < 0 || colon > eq
}

// FormatSeriesHelp renders the shared series-syntax help text once, so
// every tool's flag docs stay in sync.
func FormatSeriesHelp(noun string) string {
	return fmt.Sprintf("comma-separated %s series: name or name:key=value,key=value", noun)
}

// CancelMessage renders the shared post-cancellation line the study CLIs
// print before exiting 2: how much was recorded, and whether a re-run can
// resume it (only with a checkpoint — a daemon keeps one per study, a
// local run only with -out).
func CancelMessage(recorded, total int, outPath string, remote bool) string {
	hint := "; no -out checkpoint was given, so a re-run starts fresh"
	switch {
	case remote:
		hint = "; the daemon keeps the study resumable — resubmit the same spec"
	case outPath != "":
		hint = "; re-run with the same spec and -out to resume"
	}
	return fmt.Sprintf("canceled with %d/%d points recorded%s", recorded, total, hint)
}
