package experiment

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"sprinklers/internal/resultcache"
)

func adaptiveSpec(t *testing.T) Spec {
	t.Helper()
	spec, err := BuiltinSpec("adaptive-smoke")
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// denseLoads is the dense grid the adaptive acceptance comparisons use: the
// adaptive-smoke seed range [0.2, 0.95] at step 0.03.
func denseLoads() []float64 {
	var loads []float64
	for l := 0.20; l < 0.9501; l += 0.03 {
		loads = append(loads, math.Round(l*100)/100)
	}
	return loads
}

// denseEquivalent is the dense-grid study the adaptive-smoke builtin is
// benchmarked against: the same physical configuration (algorithms, traffic,
// size, slots, replicas, seed), every load simulated with every replica.
func denseEquivalent(t *testing.T) Spec {
	t.Helper()
	spec := adaptiveSpec(t)
	spec.Name = "dense-equivalent"
	spec.Kind = SimStudy
	spec.Adaptive = nil
	spec.Loads = denseLoads()
	return spec
}

// interpolate evaluates the piecewise-linear curve through (loads, delays)
// at x. The points must be sorted by load and bracket x.
func interpolate(t *testing.T, loads, delays []float64, x float64) float64 {
	t.Helper()
	if x < loads[0]-1e-9 || x > loads[len(loads)-1]+1e-9 {
		t.Fatalf("load %v outside the adaptive curve [%v, %v]", x, loads[0], loads[len(loads)-1])
	}
	for i := 0; i < len(loads)-1; i++ {
		if x <= loads[i+1]+1e-9 {
			if loads[i+1] == loads[i] {
				return delays[i]
			}
			f := (x - loads[i]) / (loads[i+1] - loads[i])
			return delays[i] + f*(delays[i+1]-delays[i])
		}
	}
	return delays[len(delays)-1]
}

// curveOf extracts one algorithm's (load, delay) curve, sorted by load.
func curveOf(rs []PointResult, alg Algorithm) (loads, delays []float64) {
	type pt struct{ l, d float64 }
	var pts []pt
	for _, r := range rs {
		if r.Algorithm == alg {
			pts = append(pts, pt{r.Load, r.MeanDelay})
		}
	}
	sort.Slice(pts, func(a, b int) bool { return pts[a].l < pts[b].l })
	for _, p := range pts {
		loads = append(loads, p.l)
		delays = append(delays, p.d)
	}
	return loads, delays
}

// TestAdaptiveBeatsDenseWithinTolerance is the acceptance property: the
// adaptive-smoke builtin reproduces the dense-grid delay curve at every
// dense point while simulating at most a fifth of the dense grid's slots.
func TestAdaptiveBeatsDenseWithinTolerance(t *testing.T) {
	var actr Counters
	adaptive, err := RunStudy(context.Background(), adaptiveSpec(t), StudyConfig{Counters: &actr})
	if err != nil {
		t.Fatal(err)
	}
	var dctr Counters
	dense, err := RunStudy(context.Background(), denseEquivalent(t), StudyConfig{Counters: &dctr})
	if err != nil {
		t.Fatal(err)
	}

	a, d := actr.Snapshot(), dctr.Snapshot()
	if a.SlotsSimulated == 0 || d.SlotsSimulated == 0 {
		t.Fatalf("runs simulated nothing: adaptive %+v dense %+v", a, d)
	}
	if 5*a.SlotsSimulated > d.SlotsSimulated {
		t.Errorf("adaptive simulated %d slots, more than 1/5 of the dense grid's %d",
			a.SlotsSimulated, d.SlotsSimulated)
	}
	if a.PointsRefined == 0 {
		t.Error("adaptive run refined no points")
	}
	if a.ReplicasEarlyStopped == 0 || a.SlotsSavedEstimate == 0 {
		t.Errorf("adaptive run stopped no replicas early: %+v", a)
	}
	if d.PointsRefined != 0 || d.ReplicasEarlyStopped != 0 || d.SlotsSavedEstimate != 0 {
		t.Errorf("dense run touched adaptive counters: %+v", d)
	}

	// The study is deterministic, so its work is pinned exactly. A dense run
	// over the adaptive run's final 12 points would simulate points ×
	// replicas × (slots + warmup) = 96 000 slots; the adaptive run
	// simulates 74 400.
	if got := len(adaptive); got != 12 {
		t.Errorf("adaptive run produced %d points, want 12", got)
	}
	if a.SlotsSimulated != 74_400 {
		t.Errorf("adaptive run simulated %d slots, want 74400", a.SlotsSimulated)
	}
	if a.PointsRefined != 4 {
		t.Errorf("adaptive run refined %d points, want 4", a.PointsRefined)
	}
	if a.ReplicasEarlyStopped != 17 {
		t.Errorf("adaptive run stopped %d replicas early, want 17", a.ReplicasEarlyStopped)
	}

	// Curve reproduction: the adaptive curve, linearly interpolated at every
	// dense load, must agree with the dense measurement within a relative
	// tolerance (floored at 5 slots — both sides are noisy 2000-slot sims).
	const relTol, absFloor = 0.35, 5.0
	for _, alg := range []Algorithm{FOFF, LoadBalanced} {
		aloads, adelays := curveOf(adaptive, alg)
		worst := 0.0
		for _, r := range dense {
			if r.Algorithm != alg {
				continue
			}
			got := interpolate(t, aloads, adelays, r.Load)
			errAbs := math.Abs(got - r.MeanDelay)
			rel := errAbs / math.Max(math.Abs(r.MeanDelay), absFloor)
			if rel > worst {
				worst = rel
			}
			if rel > relTol {
				t.Errorf("%s load %.2f: adaptive curve gives %.1f, dense grid measured %.1f (rel err %.2f)",
					alg, r.Load, got, r.MeanDelay, rel)
			}
		}
		t.Logf("%s: worst relative error %.3f over %d dense loads (%d adaptive points)",
			alg, worst, len(denseLoads()), len(aloads))
	}
}

// TestAdaptiveDeterministicAcrossParallelism: the checkpoint bytes must not
// depend on worker parallelism — replicas within a point always run in
// index order, so the early-stopping decisions are identical.
func TestAdaptiveDeterministicAcrossParallelism(t *testing.T) {
	dir := t.TempDir()
	var want []byte
	for i, cfg := range []StudyConfig{
		{Parallelism: 1},
		{Parallelism: 4},
	} {
		path := filepath.Join(dir, "out.jsonl")
		if err := os.RemoveAll(path); err != nil {
			t.Fatal(err)
		}
		cfg.ResultsPath = path
		if _, err := RunStudy(context.Background(), adaptiveSpec(t), cfg); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = got
			continue
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("config %d produced different checkpoint bytes (%d vs %d)", i, len(got), len(want))
		}
	}
}

// TestAdaptiveResumeByteIdenticalUnderRandomKills mirrors the dense resume
// property for the dynamic grid: however often the study is killed, wherever
// the kills land (mid-seed or mid-refinement), and whatever garbage a kill
// leaves on the trailing line, the finished checkpoint must be
// byte-identical to an uninterrupted run's.
func TestAdaptiveResumeByteIdenticalUnderRandomKills(t *testing.T) {
	spec := adaptiveSpec(t)
	dir := t.TempDir()

	fullPath := filepath.Join(dir, "full.jsonl")
	full, err := RunStudy(context.Background(), spec, StudyConfig{ResultsPath: fullPath, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(fullPath)
	if err != nil {
		t.Fatal(err)
	}
	total := len(full)
	if total <= spec.WithDefaults().NumPoints() {
		t.Fatalf("study never refined: %d points, seed grid %d", total, spec.WithDefaults().NumPoints())
	}

	rng := rand.New(rand.NewSource(20260808))
	for trial := 0; trial < 5; trial++ {
		path := filepath.Join(dir, "resumed.jsonl")
		if err := os.RemoveAll(path); err != nil {
			t.Fatal(err)
		}
		kills := 1 + rng.Intn(3)
		var schedule []int
		for k := 0; k < kills; k++ {
			halt := 1 + rng.Intn(total-1)
			schedule = append(schedule, halt)
			stopAt(t, spec, StudyConfig{ResultsPath: path, Parallelism: 1 + rng.Intn(4)}, recordedIn(t, path)+halt)
			if rng.Intn(2) == 0 {
				appendTorn(t, path, `{"algorithm":"spr`[:1+rng.Intn(16)])
			}
		}
		if _, err := RunStudy(context.Background(), spec, StudyConfig{ResultsPath: path, Parallelism: 1 + rng.Intn(4)}); err != nil {
			t.Fatalf("trial %d schedule %v: final resume failed: %v", trial, schedule, err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("trial %d (kill schedule %v): resumed checkpoint differs from uninterrupted run\ngot  %d bytes\nwant %d bytes",
				trial, schedule, len(got), len(want))
		}
	}
}

// TestAdaptiveTwinCalibrationTracksDenseCurve: a twin calibrated on the
// coarse seed points must track the DENSE ground-truth curve of the
// markov-twinned load-balanced baseline — the property that makes twin
// divergence a usable refinement signal.
func TestAdaptiveTwinCalibrationTracksDenseCurve(t *testing.T) {
	spec := adaptiveSpec(t).WithDefaults()
	adaptive, err := RunStudy(context.Background(), spec, StudyConfig{})
	if err != nil {
		t.Fatal(err)
	}
	dense, err := RunStudy(context.Background(), denseEquivalent(t), StudyConfig{})
	if err != nil {
		t.Fatal(err)
	}

	model, maxStable := twinModel(string(LoadBalanced))
	if model != "markov" {
		t.Fatalf("load-balanced twin = %q, want markov", model)
	}
	// Recompute the calibration exactly as the runner does: over the seed
	// points (the spec's own loads) of the load-balanced curve.
	var raw, sim []float64
	seedLoads := map[float64]bool{}
	for _, l := range spec.Loads {
		seedLoads[l] = true
	}
	for _, r := range adaptive {
		if r.Algorithm == LoadBalanced && seedLoads[r.Load] {
			raw = append(raw, twinDelay(model, maxStable, r.N, r.Load))
			sim = append(sim, r.MeanDelay)
		}
	}
	if len(raw) != len(spec.Loads) {
		t.Fatalf("found %d seed points, want %d", len(raw), len(spec.Loads))
	}
	scale := calibrateTwin(raw, sim)
	if scale <= 0 {
		t.Fatalf("calibration scale %v, want positive", scale)
	}

	// Accuracy bound away from saturation, where the twin's shape holds; at
	// the cliff the closed form outruns any finite-horizon simulation, which
	// is precisely the divergence signal refinement spends points on — so
	// there we only require the signal to clear the refine threshold.
	worstBody, worstCliff := 0.0, 0.0
	for _, r := range dense {
		if r.Algorithm != LoadBalanced {
			continue
		}
		pred := scale * twinDelay(model, maxStable, r.N, r.Load)
		div := twinDivergence(pred, r.MeanDelay)
		if r.Load <= 0.80 {
			worstBody = math.Max(worstBody, div)
		} else {
			worstCliff = math.Max(worstCliff, div)
		}
	}
	t.Logf("calibrated twin vs dense ground truth: worst divergence %.3f below load 0.80, %.3f above (scale %.3f)",
		worstBody, worstCliff, scale)
	if worstBody > 1.0 {
		t.Errorf("calibrated twin diverges %.2f from the dense curve below saturation — the refinement signal is unusable", worstBody)
	}
	if worstCliff <= spec.Adaptive.RefineThreshold {
		t.Errorf("twin divergence %.2f at the cliff does not clear the refine threshold %v", worstCliff, spec.Adaptive.RefineThreshold)
	}

	// The runner must have stamped consistent twin fields on every refined
	// point of the markov-twinned curve.
	refined := 0
	for _, r := range adaptive {
		if r.RefineRound == 0 {
			if r.TwinDelay != 0 || r.TwinDivergence != 0 {
				t.Errorf("seed point %s carries twin fields %v/%v", r.PointKey, r.TwinDelay, r.TwinDivergence)
			}
			continue
		}
		refined++
		if r.TwinDelay <= 0 {
			t.Errorf("refined point %s has non-positive twin delay %v", r.PointKey, r.TwinDelay)
		}
		if want := twinDivergence(r.TwinDelay, r.MeanDelay); math.Abs(r.TwinDivergence-want) > 1e-9 {
			t.Errorf("refined point %s: recorded divergence %v, recomputed %v", r.PointKey, r.TwinDivergence, want)
		}
		if r.Algorithm == LoadBalanced {
			want := scale * twinDelay(model, maxStable, r.N, r.Load)
			if math.Abs(r.TwinDelay-want) > 1e-9 {
				t.Errorf("refined point %s: recorded twin delay %v, recomputed %v", r.PointKey, r.TwinDelay, want)
			}
		}
	}
	if refined == 0 {
		t.Error("study refined no points")
	}
}

// TestAdaptiveReusesDenseCachePoints: an adaptive study must serve its seed
// points from a cache populated by the dense study of the same physical
// grid — the policy fields live outside the shared part of the identity —
// while its early-stopped aggregates never overwrite the dense entries.
func TestAdaptiveReusesDenseCachePoints(t *testing.T) {
	store, err := resultcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := adaptiveSpec(t)
	norm := spec.WithDefaults()
	seedGrid := norm.NumPoints()

	// A dense study over exactly the adaptive seed grid.
	denseSeed := norm
	denseSeed.Name = "dense-seed"
	denseSeed.Kind = SimStudy
	denseSeed.Adaptive = nil
	var dctr Counters
	dense, err := RunStudy(context.Background(), denseSeed, StudyConfig{Cache: store, Counters: &dctr})
	if err != nil {
		t.Fatal(err)
	}

	var actr Counters
	adaptive, err := RunStudy(context.Background(), spec, StudyConfig{Cache: store, Counters: &actr})
	if err != nil {
		t.Fatal(err)
	}
	a := actr.Snapshot()
	if a.CacheHits != int64(seedGrid) {
		t.Errorf("adaptive run hit the cache %d times, want every seed point (%d)", a.CacheHits, seedGrid)
	}
	if a.ReplicasComputed >= dctr.Snapshot().ReplicasComputed {
		t.Errorf("adaptive with a warm seed cache computed %d replicas, dense computed %d", a.ReplicasComputed, dctr.Snapshot().ReplicasComputed)
	}
	// Served seed points are the dense full-replica aggregates, verbatim.
	for i := 0; i < seedGrid; i++ {
		if adaptive[i].Replicas != norm.Replicas {
			t.Errorf("seed point %s served from cache has %d replicas, want the dense %d",
				adaptive[i].PointKey, adaptive[i].Replicas, norm.Replicas)
		}
	}
	// The dense entries must be untouched by the adaptive run.
	for _, r := range dense {
		id := denseSeed.PointIdentity(r.PointKey)
		key, canonical := id.KeyJSON()
		b, ok, err := store.Get(key)
		if err != nil || !ok {
			t.Fatalf("dense entry for %s vanished: ok=%v err=%v", r.PointKey, ok, err)
		}
		rec, valid := decodeCachedPoint(b, canonical, r.PointKey)
		if !valid || rec.Replicas != norm.Replicas {
			t.Errorf("dense entry for %s was replaced (valid=%v replicas=%d)", r.PointKey, valid, rec.Replicas)
		}
	}

	// A second adaptive run is a pure read: every point (seed and refined)
	// is served, zero slots simulated.
	var rctr Counters
	again, err := RunStudy(context.Background(), spec, StudyConfig{Cache: store, Counters: &rctr})
	if err != nil {
		t.Fatal(err)
	}
	r := rctr.Snapshot()
	if r.SlotsSimulated != 0 || r.ReplicasComputed != 0 || r.PointsComputed != 0 {
		t.Errorf("resubmitted adaptive spec executed work: %+v", r)
	}
	if string(marshalResults(t, again)) != string(marshalResults(t, adaptive)) {
		t.Error("cached adaptive rerun differs from the original")
	}
}

// TestAdaptiveSpecValidation pins the adaptive-specific spec errors.
func TestAdaptiveSpecValidation(t *testing.T) {
	base := func() Spec { return adaptiveSpec(t) }
	cases := []struct {
		name string
		mut  func(*Spec)
	}{
		{"adaptive params on a sim spec", func(s *Spec) { s.Kind = SimStudy }},
		{"scenarios rejected", func(s *Spec) { s.Scenarios = []ScenarioSpec{{Name: FlashCrowd}} }},
		{"windows rejected", func(s *Spec) { s.Windows = 4 }},
		{"budget below the seed grid", func(s *Spec) { s.Adaptive.MaxPoints = 3 }},
		{"negative rounds", func(s *Spec) { s.Adaptive.MaxRounds = -1 }},
		{"zero refine threshold", func(s *Spec) { s.Adaptive.RefineThreshold = -0.1 }},
		{"ci tolerance out of range", func(s *Spec) { s.Adaptive.CIRelTol = 1.5 }},
		{"min replicas above replicas", func(s *Spec) { s.Adaptive.MinReplicas = 99 }},
		{"min load gap out of range", func(s *Spec) { s.Adaptive.MinLoadGap = 0.6 }},
	}
	for _, c := range cases {
		s := base()
		c.mut(&s)
		if err := s.WithDefaults().Validate(); err == nil {
			t.Errorf("%s: spec validated, want error", c.name)
		}
	}
	if err := base().WithDefaults().Validate(); err != nil {
		t.Fatalf("the unmutated builtin no longer validates: %v", err)
	}
}
