package experiment

import (
	"encoding/json"
	"reflect"
	"testing"

	"sprinklers/internal/registry"
)

// checkNarrow asserts Narrow's contract for one point of a normalized spec:
// the one-point spec normalizes to itself, validates, enumerates k as its
// only point, and keeps k's content identity and seed fingerprint — also
// after the JSON round trip a cluster job puts it through.
func checkNarrow(t *testing.T, s Spec, k PointKey) {
	t.Helper()
	want := s.PointIdentity(k)
	n := s.Narrow(k)
	if d := n.WithDefaults(); !reflect.DeepEqual(d, n) {
		t.Errorf("%s: WithDefaults moved the one-point spec:\n%+v\nvs\n%+v", k, d, n)
	}
	b, err := json.Marshal(n)
	if err != nil {
		t.Fatalf("%s: %v", k, err)
	}
	var wire Spec
	if err := json.Unmarshal(b, &wire); err != nil {
		t.Fatalf("%s: decoding %s: %v", k, b, err)
	}
	for _, got := range []Spec{n, wire.WithDefaults()} {
		if err := got.Validate(); err != nil {
			t.Errorf("%s: one-point spec %s does not validate: %v", k, b, err)
			continue
		}
		if pts := got.Points(); len(pts) != 1 || got.NumPoints() != 1 || pts[0] != k {
			t.Errorf("%s: one-point spec enumerates %v", k, pts)
		}
		id := got.PointIdentity(k)
		if key, wantKey := pointKey(id), pointKey(want); key != wantKey {
			t.Errorf("%s: identity key %s, want %s", k, key, wantKey)
		}
		if id.SeedFingerprint() != want.SeedFingerprint() {
			t.Errorf("%s: seed fingerprint %x, want %x", k, id.SeedFingerprint(), want.SeedFingerprint())
		}
	}
}

// TestNarrowKeepsPointIdentity: s.Narrow(k).PointIdentity(k) ==
// s.PointIdentity(k) for every point of every simulated builtin, a
// hand-built spec with relabelled optioned series, bursts and a scenario,
// and an adaptive point refined between two seed loads.
func TestNarrowKeepsPointIdentity(t *testing.T) {
	for _, name := range []string{"fig6", "fig7", "smoke", "flashcrowd", "adaptive-smoke", "adaptive-fig6"} {
		b, err := BuiltinSpec(name)
		if err != nil {
			t.Fatal(err)
		}
		s := b.WithDefaults()
		for _, k := range s.Points() {
			checkNarrow(t, s, k)
		}
	}

	s := Spec{
		Name: "narrow", Kind: SimStudy,
		Algorithms: []AlgorithmSpec{
			{Name: PF, As: "pf4", Options: registry.Options{"threshold": 4}},
			{Name: PF, As: "pf8", Options: registry.Options{"threshold": 8}},
			{Name: Sprinklers},
		},
		Traffic: []TrafficSpec{
			{Name: HotspotTraffic, As: "hot", Options: registry.Options{"fraction": 0.75}},
			{Name: UniformTraffic},
		},
		Scenarios: []ScenarioSpec{{Name: FlashCrowd, As: "crowd", Options: registry.Options{"surge": 0.5}}},
		Loads:     []float64{0.4, 0.8},
		Sizes:     []int{8, 16},
		Bursts:    []float64{0, 4},
		Replicas:  2, Slots: 1000, Seed: 3,
	}.WithDefaults()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, k := range s.Points() {
		checkNarrow(t, s, k)
	}
	if n := s.Narrow(s.Points()[0]); n.Algorithms[0].label() != "pf4" || n.Traffic[0].label() != "hot" ||
		n.Scenarios[0].label() != "crowd" || n.Windows != s.Windows {
		t.Errorf("one-point spec lost a label or the windows: %+v", n)
	}

	b, _ := BuiltinSpec("adaptive-smoke")
	ad := b.WithDefaults()
	mid := ad.Points()[1]
	mid.Load = (ad.Loads[1] + ad.Loads[2]) / 2
	checkNarrow(t, ad, mid)
}
