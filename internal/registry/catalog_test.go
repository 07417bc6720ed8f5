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

func TestOptionFlagAndParseOptionPairs(t *testing.T) {
	f := OptionFlag{}
	for _, s := range []string{"threshold=16", "adaptive=true", "mode=greedy"} {
		if err := f.Set(s); err != nil {
			t.Fatal(err)
		}
	}
	if f.String() == "" {
		t.Error("OptionFlag.String empty")
	}
	want := Options{"threshold": float64(16), "adaptive": true, "mode": "greedy"}
	if !reflect.DeepEqual(Options(f), want) {
		t.Errorf("OptionFlag = %v, want %v", f, want)
	}
	if err := f.Set("noequals"); err == nil {
		t.Error("malformed assignment accepted")
	}
	if err := f.Set("=value"); err == nil {
		t.Error("empty key accepted")
	}

	opts, err := parseOptionPairs([]string{" threshold=16 ", "adaptive=true", "mode=greedy"})
	if err != nil || !reflect.DeepEqual(opts, want) {
		t.Errorf("parseOptionPairs = %v err %v, want %v", opts, err, want)
	}
	if opts, err := parseOptionPairs(nil); err != nil || opts != nil {
		t.Errorf("empty parseOptionPairs = %v err %v, want nil", opts, err)
	}
	if _, err := parseOptionPairs([]string{"bad"}); err == nil {
		t.Error("parseOptionPairs accepted a malformed pair")
	}
}

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
	if _, _, err := ParseSeriesEntry("pf:threshold"); err == nil {
		t.Error("malformed options accepted")
	}
}

func TestCatalogMatchesRegistrations(t *testing.T) {
	doc := Catalog()
	if len(doc.Architectures) != len(Architectures()) {
		t.Fatalf("catalog lists %d architectures, registry has %d", len(doc.Architectures), len(Architectures()))
	}
	if len(doc.Workloads) != len(Workloads()) || len(doc.Scenarios) != len(Scenarios()) {
		t.Fatal("catalog workload/scenario counts drifted from the registry")
	}
	for i, a := range Architectures() {
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
