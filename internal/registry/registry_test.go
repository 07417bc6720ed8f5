package registry

import (
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"sprinklers/internal/sim"
)

func testSchema() Schema {
	return Schema{
		Int("threshold", 0, "padding threshold").AtLeast(0),
		Float("fraction", 0.5, "hot fraction").Between(0, 1),
		Bool("adaptive", false, "resize online"),
		String("placement", "ols", "primary-port scheme").OneOf("ols", "independent"),
	}
}

func TestNormalizeAppliesDefaults(t *testing.T) {
	got, err := testSchema().Normalize(nil)
	if err != nil {
		t.Fatal(err)
	}
	want := Options{
		"threshold": float64(0),
		"fraction":  0.5,
		"adaptive":  false,
		"placement": "ols",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("defaults: got %#v want %#v", got, want)
	}
}

func TestNormalizeOverridesAndCoerces(t *testing.T) {
	// JSON decoding produces float64; Go callers pass int. Both must land
	// in canonical float64 form.
	got, err := testSchema().Normalize(map[string]any{
		"threshold": 64, // int from Go code
		"fraction":  0.75,
		"placement": "independent",
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.Int("threshold") != 64 || got.Float("fraction") != 0.75 ||
		got.Bool("adaptive") || got.String("placement") != "independent" {
		t.Fatalf("accessors: %#v", got)
	}
	if _, isF := got["threshold"].(float64); !isF {
		t.Fatalf("int option not stored canonically: %T", got["threshold"])
	}
}

// TestNormalizeSurvivesJSONRoundTrip is the property checkpoint-header
// comparison depends on: marshal a normalized Options, decode it back, and
// DeepEqual must hold.
func TestNormalizeSurvivesJSONRoundTrip(t *testing.T) {
	norm, err := testSchema().Normalize(map[string]any{"threshold": 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(norm)
	if err != nil {
		t.Fatal(err)
	}
	var back Options
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(norm, back) {
		t.Fatalf("round trip changed options:\nbefore %#v\nafter  %#v", norm, back)
	}
	// Normalizing an already-normalized map is the identity.
	again, err := testSchema().Normalize(back)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(norm, again) {
		t.Fatalf("normalize not idempotent:\n%#v\n%#v", norm, again)
	}
}

func TestNormalizeRejections(t *testing.T) {
	cases := []struct {
		name string
		in   map[string]any
		want string
	}{
		{"unknown key", map[string]any{"treshold": 3}, "unknown option"},
		{"fractional int", map[string]any{"threshold": 3.5}, "wants an integer"},
		{"overflowing int", map[string]any{"threshold": 1e30}, "wants an integer"},
		{"below min", map[string]any{"threshold": -1}, "below minimum"},
		{"out of range", map[string]any{"fraction": 1.5}, "outside [0, 1]"},
		{"wrong type", map[string]any{"adaptive": "yes"}, "wants a bool"},
		{"NaN float", map[string]any{"fraction": math.NaN()}, "finite"},
		{"infinite float", map[string]any{"fraction": math.Inf(1)}, "finite"},
		{"bad enum", map[string]any{"placement": "magic"}, "one of ols|independent"},
	}
	for _, c := range cases {
		_, err := testSchema().Normalize(c.in)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want substring %q", c.name, err, c.want)
		}
	}
	if _, err := (Schema{}).Normalize(map[string]any{"x": 1}); err == nil ||
		!strings.Contains(err.Error(), "takes no options") {
		t.Errorf("empty schema with options: %v", err)
	}
	if got, err := (Schema{}).Normalize(nil); err != nil || got != nil {
		t.Errorf("empty schema: %v %v", got, err)
	}
}

// TestHandBuiltOptionDefaultCanonicalized: an Option built as a struct
// literal may carry a Go int default; Normalize must still emit the
// canonical float64 form (the checkpoint header depends on it) and the
// catalog must render it without panicking.
func TestHandBuiltOptionDefaultCanonicalized(t *testing.T) {
	s := Schema{{Name: "k", Type: typeInt, Default: 8, Help: "hand-built"}}
	if err := s.validate(); err != nil {
		t.Fatal(err)
	}
	got, err := s.Normalize(nil)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := got["k"].(float64); !ok || v != 8 {
		t.Fatalf("default not canonicalized: %#v", got["k"])
	}
	if d := optionInfo(s[0]).describe(); !strings.Contains(d, "default 8") {
		t.Fatalf("describe: %q", d)
	}
}

func TestSchemaValidateCatchesBadDefaults(t *testing.T) {
	bad := Schema{Float("fraction", 2, "oops").Between(0, 1)}
	if err := bad.validate(); err == nil {
		t.Fatal("default outside bounds should fail schema validation")
	}
	dup := Schema{Int("x", 0, ""), Int("x", 1, "")}
	if err := dup.validate(); err == nil {
		t.Fatal("duplicate option names should fail schema validation")
	}
}

// nullSwitch is the cheapest possible sim.Switch for registration tests.
type nullSwitch struct{ n int }

func (s nullSwitch) N() int               { return s.n }
func (s nullSwitch) Now() sim.Slot        { return 0 }
func (s nullSwitch) Backlog() int         { return 0 }
func (s nullSwitch) Arrive(sim.Packet)    {}
func (s nullSwitch) Step(sim.DeliverFunc) {}

// TestRegisterLookupAndOrder runs one table of cases over all three
// tables: Register panics on a duplicate name, a missing name or
// constructor, or a malformed schema, and keeps nothing of a refused
// entry; Lookup and Schema find what it kept; All and Names list by rank,
// then name.
func TestRegisterLookupAndOrder(t *testing.T) {
	events := func(ScenarioConfig) ([]Event, error) { return nil, nil }
	t.Run("architectures", func(t *testing.T) {
		checkTable(t, Architectures, func(name string, rank int, opts Schema, built bool) Architecture {
			a := Architecture{Name: name, Rank: rank, Options: opts}
			if built {
				a.New = func(cfg ArchConfig) (sim.Switch, error) { return nullSwitch{n: cfg.N}, nil }
			}
			return a
		})
	})
	t.Run("workloads", func(t *testing.T) {
		checkTable(t, Workloads, func(name string, rank int, opts Schema, built bool) Workload {
			w := Workload{Name: name, Rank: rank, Options: opts}
			if built {
				w.Rates = func(int, float64, *rand.Rand, Options) ([][]float64, error) { return nil, nil }
			}
			return w
		})
	})
	t.Run("scenarios", func(t *testing.T) {
		checkTable(t, Scenarios, func(name string, rank int, opts Schema, built bool) Scenario {
			s := Scenario{Name: name, Rank: rank, Options: opts}
			if built {
				s.Events = events
			}
			return s
		})
	})
}

// checkTable registers test entries built by mk into table, checks them,
// and unregisters them again.
func checkTable[T entry](t *testing.T, table *Table[T], mk func(name string, rank int, opts Schema, built bool) T) {
	// Rank 1000 sorts after every real registration; rank 999 before the
	// rank-1000 entries whatever its name.
	kept := []struct {
		name string
		rank int
	}{{"zz-test-entry", 1000}, {"aa-test-entry", 1000}, {"mm-test-entry", 1000}, {"zz-first-test-entry", 999}}
	for i, e := range kept {
		table.Register(mk(e.name, e.rank, Schema{Int("k", i, "test knob")}, true))
		t.Cleanup(func() { table.unregister(e.name) })
	}

	refused := []struct {
		what string
		e    T
	}{
		{"duplicate name", mk("mm-test-entry", 1000, nil, true)},
		{"missing name", mk("", 1000, nil, true)},
		{"missing constructor", mk("noctor-test-entry", 1000, nil, false)},
		{"bad schema", mk("badschema-test-entry", 1000, Schema{Float("x", 5, "out of own bounds").Between(0, 1)}, true)},
	}
	for _, c := range refused {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with a %s did not panic", table.noun, c.what)
				}
			}()
			table.Register(c.e)
		}()
	}
	for _, n := range []string{"noctor-test-entry", "badschema-test-entry"} {
		if _, ok := table.Lookup(n); ok {
			t.Errorf("refused %s %s was kept", table.noun, n)
		}
	}
	if s, ok := table.Schema("mm-test-entry"); !ok || len(s) != 1 || s[0].Default != float64(2) {
		t.Errorf("Schema(mm-test-entry) = %v %v, want its one knob defaulting to 2", s, ok)
	}
	if _, ok := table.Schema("no-such-entry"); ok {
		t.Error("Schema found an unregistered name")
	}

	var got, all []string
	for _, n := range table.Names() {
		if strings.HasSuffix(n, "-test-entry") {
			got = append(got, n)
		}
	}
	for _, e := range table.All() {
		if n := e.head().info.Name; strings.HasSuffix(n, "-test-entry") {
			all = append(all, n)
		}
	}
	want := []string{"zz-first-test-entry", "aa-test-entry", "mm-test-entry", "zz-test-entry"}
	if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(all, want) {
		t.Errorf("%s order: Names %v, All %v, want %v", table.noun, got, all, want)
	}
}

func TestNewArchitecture(t *testing.T) {
	Architectures.Register(Architecture{
		Name: "aa-test-arch",
		New: func(cfg ArchConfig) (sim.Switch, error) {
			return nullSwitch{n: cfg.N}, nil
		},
		Options: Schema{Int("k", 1, "test knob")},
	})
	t.Cleanup(func() { Architectures.unregister("aa-test-arch") })

	// The test architecture does not declare NeedsRates, so the rates
	// thunk must never be invoked (it is an O(N^2) copy in real use).
	rates := func() [][]float64 {
		t.Error("rates materialized for a NeedsRates=false architecture")
		return nil
	}
	sw, err := NewArchitecture("aa-test-arch", 8, rates, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sw.N() != 8 {
		t.Fatalf("constructor dropped N: %d", sw.N())
	}
	if _, err := NewArchitecture("aa-test-arch", 8, nil, 1, map[string]any{"nope": 1}); err == nil {
		t.Fatal("bad options should fail construction")
	}
	if _, err := NewArchitecture("no-such-arch", 8, nil, 1, nil); err == nil ||
		!strings.Contains(err.Error(), "registered:") {
		t.Fatalf("unknown architecture error should list registered names: %v", err)
	}
}

func TestRegisterPanicsOnDuplicate(t *testing.T) {
	a := Architecture{
		Name: "dup-test-arch",
		New:  func(cfg ArchConfig) (sim.Switch, error) { return nullSwitch{}, nil },
	}
	Architectures.Register(a)
	t.Cleanup(func() { Architectures.unregister(a.Name) })
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration should panic")
		}
	}()
	Architectures.Register(a)
}

func TestWorkloadRates(t *testing.T) {
	Workloads.Register(Workload{
		Name:        "test-wl",
		Rank:        1000,
		Description: "test-only",
		Options:     Schema{Float("spread", 1, "test knob").Between(0, 1)},
		Rates: func(n int, load float64, rng *rand.Rand, opts Options) ([][]float64, error) {
			rates := make([][]float64, n)
			for i := range rates {
				rates[i] = make([]float64, n)
				rates[i][rng.Intn(n)] = load * opts.Float("spread")
			}
			return rates, nil
		},
	})
	t.Cleanup(func() { Workloads.unregister("test-wl") })
	rates, err := WorkloadRates("test-wl", 4, 0.8, rand.New(rand.NewSource(1)), map[string]any{"spread": 0.5})
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, row := range rates {
		for _, r := range row {
			sum += r
		}
	}
	if sum != 4*0.8*0.5 {
		t.Fatalf("workload rates sum %v", sum)
	}
	if _, err := WorkloadRates("no-such-wl", 4, 0.8, rand.New(rand.NewSource(1)), nil); err == nil {
		t.Fatal("unknown workload should error")
	}
}

func TestWriteCatalog(t *testing.T) {
	var b strings.Builder
	WriteCatalog(&b)
	out := b.String()
	for _, want := range []string{"architectures:", "workloads:", "scenarios:"} {
		if !strings.Contains(out, want) {
			t.Errorf("catalog missing %q:\n%s", want, out)
		}
	}
}
