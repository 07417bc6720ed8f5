package registry

import (
	"encoding/json"
	"reflect"
	"testing"
)

func TestParseOptionValue(t *testing.T) {
	cases := []struct {
		in   string
		want any
	}{
		{"1024", float64(1024)},
		{"0.75", 0.75},
		{"true", true},
		{"false", false},
		{"gated", "gated"},
	}
	for _, c := range cases {
		if got := parseOptionValue(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("parseOptionValue(%q) = %v (%T), want %v", c.in, got, got, c.want)
		}
	}
}

// TestParseSeriesEntry: the series syntax "name" or "name:key=value,..."
// infers each value as a number, then a bool, then a string, and rejects a
// malformed assignment.
func TestParseSeriesEntry(t *testing.T) {
	name, opts, err := ParseSeriesEntry("sprinklers")
	if err != nil || name != "sprinklers" || opts != nil {
		t.Errorf("plain entry = %q %v %v", name, opts, err)
	}
	name, opts, err = ParseSeriesEntry(" pf : threshold=16,mode=x ")
	if err != nil || name != "pf" {
		t.Fatalf("optioned entry = %q %v %v", name, opts, err)
	}
	if opts["threshold"] != float64(16) || opts["mode"] != "x" {
		t.Errorf("options = %v", opts)
	}
	name, opts, err = ParseSeriesEntry("pf: threshold=16 , adaptive=true,mode=greedy")
	want := Options{"threshold": float64(16), "adaptive": true, "mode": "greedy"}
	if err != nil || name != "pf" || !reflect.DeepEqual(opts, want) {
		t.Errorf("inferred entry = %q %v err %v, want pf %v", name, opts, err, want)
	}
	for _, bad := range []string{"pf:threshold", "pf:=16", "pf:threshold=16,noequals", "pf:"} {
		if _, _, err := ParseSeriesEntry(bad); err == nil {
			t.Errorf("ParseSeriesEntry(%q) accepted a malformed assignment", bad)
		}
	}
}

// TestOptionFlagAndParseOptionPairs: parseOptionPairs, the backend of the
// series syntax's option list, trims each assignment, infers its value and
// rejects a missing "=" or an empty key.
func TestOptionFlagAndParseOptionPairs(t *testing.T) {
	want := Options{"threshold": float64(16), "adaptive": true, "mode": "greedy"}
	opts, err := parseOptionPairs([]string{" threshold=16 ", "adaptive=true", "mode=greedy"})
	if err != nil || !reflect.DeepEqual(opts, want) {
		t.Errorf("parseOptionPairs = %v err %v, want %v", opts, err, want)
	}
	if opts, err := parseOptionPairs(nil); err != nil || opts != nil {
		t.Errorf("empty parseOptionPairs = %v err %v, want nil", opts, err)
	}
	for _, bad := range []string{"bad", "noequals", "=value"} {
		if _, err := parseOptionPairs([]string{"threshold=16", bad}); err == nil {
			t.Errorf("parseOptionPairs accepted the malformed pair %q", bad)
		}
	}
}

func TestCatalogMatchesRegistrations(t *testing.T) {
	doc := Catalog()
	if len(doc.Architectures) != len(Architectures.All()) {
		t.Fatalf("catalog lists %d architectures, registry has %d", len(doc.Architectures), len(Architectures.All()))
	}
	if len(doc.Workloads) != len(Workloads.All()) || len(doc.Scenarios) != len(Scenarios.All()) {
		t.Fatal("catalog workload/scenario counts drifted from the registry")
	}
	for i, a := range Architectures.All() {
		info := doc.Architectures[i]
		if info.Name != a.Name || info.OrderPreserving != a.OrderPreserving || info.MaxStableLoad != a.MaxStableLoad {
			t.Errorf("architecture %s metadata drifted: %+v", a.Name, info)
		}
		if len(info.Options) != len(a.Options) {
			t.Errorf("architecture %s lists %d options, schema has %d", a.Name, len(info.Options), len(a.Options))
		}
		for j, o := range a.Options {
			oi := info.Options[j]
			if oi.Name != o.Name || oi.Type != o.Type {
				t.Errorf("architecture %s option %d drifted: %+v vs %+v", a.Name, j, oi, o)
			}
			if o.Bounded && oi.Min == nil {
				t.Errorf("architecture %s option %s lost its lower bound", a.Name, o.Name)
			}
		}
	}
	// The catalog must be JSON-round-trippable (the daemon serves it).
	b, err := json.Marshal(doc)
	if err != nil {
		t.Fatalf("catalog does not marshal: %v", err)
	}
	var back CatalogDoc
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("catalog does not unmarshal: %v", err)
	}
	if len(back.Architectures) != len(doc.Architectures) {
		t.Error("catalog changed across a JSON round trip")
	}
}
