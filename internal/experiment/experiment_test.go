package experiment

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"sprinklers/internal/registry"
)

func TestNewSwitchAllAlgorithms(t *testing.T) {
	m, err := PatternOpts(UniformTraffic, 8, 0.5, rand.New(rand.NewSource(1)), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range AllAlgorithms() {
		sw, err := NewSwitchOpts(alg, m, 1, nil)
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if sw.N() != 8 {
			t.Fatalf("%s: N = %d", alg, sw.N())
		}
	}
	if _, err := NewSwitchOpts("nonsense", m, 1, nil); err == nil {
		t.Fatal("unknown algorithm should error")
	}
}

func TestPatternKinds(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, name := range registry.WorkloadNames() {
		kind := TrafficKind(name)
		m, err := PatternOpts(kind, 16, 0.8, rng, nil)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if !m.Admissible(1e-9) {
			t.Fatalf("%s: inadmissible", kind)
		}
	}
	if _, err := PatternOpts("nonsense", 16, 0.8, rng, nil); err == nil {
		t.Fatal("unknown traffic kind should error")
	}
}

// TestRunPointOrderingMatchesContract: every architecture that claims
// order preservation must deliver zero reordered packets, and the baseline
// must not (at a load where reordering is plentiful).
func TestRunPointOrderingMatchesContract(t *testing.T) {
	cfg := Config{N: 8, Traffic: UniformTraffic, Slots: 30000, Seed: 3}
	for _, alg := range AllAlgorithms() {
		p, err := RunPoint(alg, cfg, 0.8)
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if alg.OrderPreserving() && p.Reordered != 0 {
			t.Errorf("%s reordered %d packets", alg, p.Reordered)
		}
		if alg == LoadBalanced && p.Reordered == 0 {
			t.Error("baseline delivered everything in order; detector broken?")
		}
		if p.Delivered == 0 {
			t.Errorf("%s delivered nothing", alg)
		}
	}
}

// TestRunPointRejections: a configuration no point can be measured under
// gets an error, never a panic or an empty point, and the same answer with
// or without windows; where validation catches it, the error names the
// field.
func TestRunPointRejections(t *testing.T) {
	cases := []struct {
		name, field string
		mutate      func(*Config, *Algorithm)
	}{
		{"unknown algorithm", "", func(_ *Config, a *Algorithm) { *a = "nope" }},
		{"unknown traffic", "", func(c *Config, _ *Algorithm) { c.Traffic = "nope" }},
		{"unknown scenario", "", func(c *Config, _ *Algorithm) { c.Scenario = "nope" }},
		{"scenario option out of range", "", func(c *Config, _ *Algorithm) {
			c.Scenario = FlashCrowd
			c.ScenarioOptions = registry.Options{"surge": 2.0}
		}},
		{"more windows than slots", "Windows", func(c *Config, _ *Algorithm) { c.Windows = 2000 }},
		{"negative windows", "Windows", func(c *Config, _ *Algorithm) { c.Windows = -1 }},
		{"one port", "N", func(c *Config, _ *Algorithm) { c.N = 1 }},
		{"no slots", "Slots", func(c *Config, _ *Algorithm) { c.Slots = 0 }},
		{"no slots with a scenario", "Slots", func(c *Config, _ *Algorithm) {
			c.Slots = 0
			c.Scenario = FlashCrowd
		}},
		{"fractional burst", "Burst", func(c *Config, _ *Algorithm) { c.Burst = 0.5 }},
		{"negative burst", "Burst", func(c *Config, _ *Algorithm) { c.Burst = -1 }},
	}
	for _, tc := range cases {
		for _, windows := range []int{0, 4} {
			cfg := Config{N: 8, Traffic: UniformTraffic, Slots: 1000, Windows: windows, Seed: 1}
			alg := Sprinklers
			tc.mutate(&cfg, &alg)
			_, err := RunPoint(alg, cfg, 0.5)
			if err == nil {
				t.Errorf("%s (windows %d): accepted", tc.name, windows)
				continue
			}
			if !strings.Contains(err.Error(), tc.field) {
				t.Errorf("%s (windows %d): error %q does not name %s", tc.name, windows, err, tc.field)
			}
		}
	}
}

// TestRenderers: the study renderers over a real study's results, and
// no panic on empty input.
func TestRenderers(t *testing.T) {
	rs, err := RunStudy(context.Background(), Spec{
		Algorithms: Algs(Sprinklers), Traffic: Traffics(UniformTraffic),
		Loads: []float64{0.5}, Sizes: []int{8}, Slots: 10000, Seed: 9,
	}, StudyConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var curves, detail strings.Builder
	RenderStudyCurves(&curves, rs)
	RenderStudyDetail(&detail, rs)
	if !strings.Contains(curves.String(), "sprinklers") || !strings.Contains(curves.String(), "0.50") {
		t.Fatalf("curves output missing fields:\n%s", curves.String())
	}
	if !strings.Contains(detail.String(), "uniform") {
		t.Fatalf("detail output missing fields:\n%s", detail.String())
	}
	RenderStudyCurves(&curves, nil) // must not panic on empty input
	RenderStudyDetail(&detail, nil)
}

// TestFig6Fig7Wrappers runs the Figure 6 and 7 built-in studies at a tiny
// horizon with only Loads and Slots overridden, as examples/comparison
// does: one point per paper curve, in the paper's legend order.
func TestFig6Fig7Wrappers(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, name := range []string{"fig6", "fig7"} {
		spec, err := BuiltinSpec(name)
		if err != nil {
			t.Fatal(err)
		}
		spec.Loads, spec.Slots = []float64{0.5}, 10_000
		rs, err := RunStudy(context.Background(), spec, StudyConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if len(rs) != len(Fig6Algorithms) {
			t.Fatalf("%s: %d points", name, len(rs))
		}
		for i, r := range rs {
			if r.Algorithm != Fig6Algorithms[i] || r.Delivered == 0 {
				t.Errorf("%s: point %d is %s with %d delivered", name, i, r.Algorithm, r.Delivered)
			}
		}
	}
}

// TestSizeSweep: at a fixed load Sprinklers' delay grows with N (frame and
// cycle lengths scale with N), and no size reorders.
func TestSizeSweep(t *testing.T) {
	pts, err := RunStudy(context.Background(), Spec{
		Algorithms: Algs(Sprinklers), Traffic: Traffics(UniformTraffic),
		Loads: []float64{0.8}, Sizes: []int{8, 16, 32}, Slots: 30000, Seed: 11,
	}, StudyConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("%d points", len(pts))
	}
	if !(pts[0].MeanDelay < pts[1].MeanDelay && pts[1].MeanDelay < pts[2].MeanDelay) {
		t.Fatalf("delay not increasing in N: %+v", pts)
	}
	for _, p := range pts {
		if p.Reordered != 0 {
			t.Fatalf("N=%d reordered %d packets", p.N, p.Reordered)
		}
	}
}

func TestRenderCSV(t *testing.T) {
	rs := []PointResult{{
		PointKey: PointKey{Algorithm: Sprinklers, Traffic: UniformTraffic, N: 8, Load: 0.5},
		Replicas: 1, MeanDelay: 12.5, P99Delay: 31, MaxDelay: 60, Throughput: 0.999,
		Delivered: 1000,
	}}
	var buf strings.Builder
	if err := RenderStudyCSV(&buf, rs); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("CSV lines: %v", lines)
	}
	if !strings.HasPrefix(lines[0], "algorithm,traffic,scenario,n,load") {
		t.Fatalf("header: %s", lines[0])
	}
	if !strings.HasPrefix(lines[1], "sprinklers,uniform,,8,0.5000,0.00,1,12.500") {
		t.Fatalf("row: %s", lines[1])
	}
}

// TestSeededRandDrawsLikeNewSource: a pooled generator, re-seeded, gives the
// first draw a new rand.NewSource would, whatever the caller before it left
// behind — for 1 000 seeds, 0 and negative ones among them, from concurrent
// callers sharing the pool (run it under -race).
func TestSeededRandDrawsLikeNewSource(t *testing.T) {
	seeds := make([]int64, 0, 1000)
	seeds = append(seeds, 0, -1, 1, math.MinInt64, math.MaxInt64, -1e6)
	rng := rand.New(rand.NewSource(3))
	for len(seeds) < cap(seeds) {
		seeds = append(seeds, rng.Int63()-rng.Int63())
	}
	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := w; k < w+len(seeds); k++ {
				s := seeds[k%len(seeds)]
				r := seededRand(s)
				got := r.Uint64()
				for extra := k % 5; extra > 0; extra-- { // leave the generator mid-stream
					r.Uint64()
				}
				sourceRands.Put(r)
				if want := rand.New(rand.NewSource(s)).Uint64(); got != want {
					errs <- fmt.Sprintf("seed %d: pooled first draw %d, want %d", s, got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestLazySourceDrawsLikeRandSource: a generator over lazySource reads the
// same stream as one over rand.NewSource — through Int63, Uint64 and the
// derived draws, across a reseed — and seeds nothing until the first draw.
func TestLazySourceDrawsLikeRandSource(t *testing.T) {
	lazy := &lazySource{seed: 42}
	got, want := rand.New(lazy), rand.New(rand.NewSource(42))
	if lazy.src != nil {
		t.Fatal("lazySource seeded before its first draw")
	}
	for round := 0; round < 2; round++ {
		for k := 0; k < 100; k++ {
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("round %d draw %d: Int63 %d, want %d", round, k, g, w)
			}
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("round %d draw %d: Uint64 %d, want %d", round, k, g, w)
			}
			if g, w := got.Float64(), want.Float64(); g != w {
				t.Fatalf("round %d draw %d: Float64 %v, want %v", round, k, g, w)
			}
			if g, w := got.Intn(1000), want.Intn(1000); g != w {
				t.Fatalf("round %d draw %d: Intn %d, want %d", round, k, g, w)
			}
		}
		got.Seed(7)
		want.Seed(7)
	}
	a, err := PatternOpts(PermutationTraffic, 16, 0.8, rand.New(&lazySource{seed: 5}), nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := PatternOpts(PermutationTraffic, 16, 0.8, rand.New(rand.NewSource(5)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Rows(), b.Rows()) {
		t.Fatal("permutation pattern differs between lazySource and rand.NewSource")
	}
}
