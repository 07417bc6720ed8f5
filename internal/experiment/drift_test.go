package experiment

import (
	"reflect"
	"strings"
	"testing"

	"sprinklers/internal/registry"
)

// The registry-drift checks: the experiment layer must present exactly
// what the registry holds, in the registry's canonical order. If these
// fail, a list somewhere is being maintained by hand again.

func TestDriftAllAlgorithmsMatchRegistry(t *testing.T) {
	algs := AllAlgorithms()
	archs := registry.Architectures.All()
	if len(algs) != len(archs) {
		t.Fatalf("AllAlgorithms has %d entries, registry has %d", len(algs), len(archs))
	}
	for i, a := range archs {
		if string(algs[i]) != a.Name {
			t.Errorf("position %d: AllAlgorithms %q, registry %q", i, algs[i], a.Name)
		}
	}
}

func TestDriftPaperConstantsAreRegistered(t *testing.T) {
	for _, a := range Fig6Algorithms {
		if _, ok := registry.Architectures.Lookup(string(a)); !ok {
			t.Errorf("Fig6Algorithms member %q is not registered", a)
		}
	}
	for _, a := range []Algorithm{
		LoadBalanced, UFS, FOFF, PF, Sprinklers, SprinklersGreedy, TCPHashing, CMS,
	} {
		if _, ok := registry.Architectures.Lookup(string(a)); !ok {
			t.Errorf("algorithm constant %q is not registered", a)
		}
	}
	for _, k := range []TrafficKind{
		UniformTraffic, DiagonalTraffic, HotspotTraffic, ZipfTraffic, PermutationTraffic,
	} {
		if _, ok := registry.Workloads.Lookup(string(k)); !ok {
			t.Errorf("traffic constant %q is not registered", k)
		}
	}
}

// TestDriftRendererLegendOrder: a study over every registered architecture
// renders its columns in registry order — the renderer preserves result
// order and results follow the spec grid, so the legend can only drift if
// something reorders behind the registry's back.
func TestDriftRendererLegendOrder(t *testing.T) {
	var rs []PointResult
	for _, a := range AllAlgorithms() {
		rs = append(rs, PointResult{
			PointKey: PointKey{Algorithm: a, Traffic: UniformTraffic, N: 8, Load: 0.5},
			Replicas: 1, MeanDelay: 1,
		})
	}
	var b strings.Builder
	RenderStudyCurves(&b, rs)
	header := strings.SplitN(b.String(), "\n", 2)[0]
	// Whole-token comparison: substring matching would let "sprinklers"
	// hide inside "sprinklers-greedy" and mask real drift.
	cols := strings.Fields(header)
	if len(cols) == 0 || cols[0] != "load" {
		t.Fatalf("unexpected header: %s", header)
	}
	want := registry.Architectures.Names()
	if got := cols[1:]; !reflect.DeepEqual(got, want) {
		t.Fatalf("legend order differs from registry order:\ngot  %v\nwant %v", got, want)
	}
}
