package experiment

import (
	"errors"
	"fmt"
	"strings"

	"sprinklers/internal/registry"
	"sprinklers/internal/sim"
)

// This file is the one place CLI flags become a Spec. cmd/sweep's series
// flags share one syntax — a registered name, optionally followed by a
// colon and comma-separated key=value options
// ("sprinklers:adaptive=true,adaptive-window=1024") — and one precedence
// rule: an explicit -spec file wins, then a builtin, then a spec assembled
// from the flags, and every grid or scalar flag that is set overrides
// whatever the spec carries.

// parseSeries parses CLI series entries into spec entries. Each entry is
// "name" or "name:key=value,..."; optioned entries keep the full text as
// their series label so two option variants of one name stay distinct
// within a study.
func parseSeries[K seriesName](entries []string) ([]Series[K], error) {
	var out []Series[K]
	for _, entry := range entries {
		name, opts, err := registry.ParseSeriesEntry(entry)
		if err != nil {
			return nil, err
		}
		s := Series[K]{Name: K(name), Options: opts}
		if len(opts) > 0 {
			s.As = entry
		}
		out = append(out, s)
	}
	return out, nil
}

// SpecArgs is the flag surface of the study CLI, sweep, in string form as
// the flags deliver it. Zero values mean "not set".
type SpecArgs struct {
	// SpecPath loads a JSON spec file; Builtin resolves a named built-in
	// study. With neither, the spec is assembled from the flags.
	SpecPath string
	Builtin  string
	// Name and Kind seed a flag-assembled spec (Kind defaults to "sim");
	// either one is an error with SpecPath or Builtin.
	Name string
	Kind string
	// Algs, Traffic and Scenarios are comma-separated series lists in the
	// shared series syntax. Algs additionally accepts "paper" (the Fig. 6
	// set) and "all" (every registered architecture). A flag-assembled
	// sim-like spec defaults to the paper set under uniform traffic.
	Algs      string
	Traffic   string
	Scenarios string
	// NS, Loads and Bursts are comma-separated grids. A flag-assembled
	// spec defaults to N = 32 and the paper's loads.
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
// flags; every grid, series and scalar flag that is set overrides the
// result.
func BuildSpec(a SpecArgs) (Spec, error) {
	var spec Spec
	switch {
	case a.SpecPath != "" || a.Builtin != "":
		if a.Name != "" {
			return spec, errors.New("-name only applies to flag-built specs, not with -spec or -builtin")
		}
		if a.Kind != "" {
			return spec, errors.New("-kind only applies to flag-built specs, not with -spec or -builtin")
		}
		var err error
		if a.SpecPath != "" {
			spec, err = LoadSpec(a.SpecPath)
		} else {
			spec, err = BuiltinSpec(a.Builtin)
		}
		if err != nil {
			return spec, err
		}
	default:
		spec = Spec{Name: a.Name, Kind: SpecKind(a.Kind), Loads: PaperLoads}
		if spec.Kind == "" {
			spec.Kind = SimStudy
		}
		if a.NS == "" {
			a.NS = "32"
		}
		if spec.simLike() {
			if a.Algs == "" {
				a.Algs = "paper"
			}
			if a.Traffic == "" {
				a.Traffic = string(UniformTraffic)
			}
		}
	}
	switch a.Algs {
	case "":
	case "paper":
		spec.Algorithms = Algs(Fig6Algorithms...)
	case "all":
		spec.Algorithms = Algs(AllAlgorithms()...)
	default:
		algs, err := parseSeries[Algorithm](splitList(a.Algs))
		if err != nil {
			return spec, err
		}
		spec.Algorithms = algs
	}
	if a.Traffic != "" {
		traffic, err := parseSeries[TrafficKind](splitList(a.Traffic))
		if err != nil {
			return spec, err
		}
		spec.Traffic = traffic
	}
	if a.NS != "" {
		ns, err := ParseIntList(a.NS)
		if err != nil {
			return spec, err
		}
		spec.Sizes = ns
	}
	if a.Bursts != "" {
		bs, err := ParseFloatList(a.Bursts)
		if err != nil {
			return spec, err
		}
		spec.Bursts = bs
	}
	if a.Scenarios != "" {
		scs, err := parseSeries[ScenarioKind](splitList(a.Scenarios))
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

// CancelMessage renders the post-cancellation line the study CLI, sweep,
// prints before exiting 2: how much was recorded, and whether a re-run can
// resume it (a daemon resumes any resubmitted study from its result cache;
// a local run resumes only from an -out checkpoint).
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
