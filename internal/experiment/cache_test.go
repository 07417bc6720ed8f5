package experiment

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"sprinklers/internal/resultcache"
)

func cacheSpec() Spec {
	return Spec{
		Name:       "cache-smoke",
		Kind:       SimStudy,
		Algorithms: Algs(Sprinklers, LoadBalanced),
		Traffic:    Traffics(UniformTraffic),
		Loads:      []float64{0.3, 0.6},
		Sizes:      []int{8},
		Replicas:   2,
		Slots:      1_000,
		Seed:       1,
	}
}

// pointKey is the content address a point is cached under.
func pointKey(id resultcache.Identity) string {
	key, _ := id.KeyJSON()
	return key
}

// marshalResults canonicalizes a result set for byte comparison.
func marshalResults(t *testing.T, rs []PointResult) []byte {
	t.Helper()
	b, err := json.Marshal(rs)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// checkpointProgress returns a Progress callback that requires, each time
// it runs, the checkpoint at path to hold the header and the first done
// point lines already, the last of them the point being reported.
func checkpointProgress(t *testing.T, path string) func(int, int, PointResult) {
	return func(done, _ int, r PointResult) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Errorf("point %d reported before the checkpoint exists: %v", done, err)
			return
		}
		lines := strings.SplitAfter(string(data), "\n")
		if len(lines) < done+2 || !strings.HasSuffix(lines[done], "\n") {
			t.Errorf("point %d reported with %d checkpoint lines on disk, want the header and %d points", done, len(lines)-1, done)
			return
		}
		var got PointResult
		if err := json.Unmarshal([]byte(lines[done]), &got); err != nil || !reflect.DeepEqual(got, r) {
			t.Errorf("checkpoint line %d is %q (err %v), want the reported point %+v", done, lines[done], err, r)
		}
	}
}

// TestCacheResubmissionIsPureRead is the acceptance property: running the
// same spec twice against one cache returns byte-identical results and
// checkpoints, with the second run executing zero simulation slots and
// zero replicas. Both runs report a point only once its checkpoint line is
// on disk.
func TestCacheResubmissionIsPureRead(t *testing.T) {
	store, err := resultcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	coldPath, warmPath := filepath.Join(dir, "cold.jsonl"), filepath.Join(dir, "warm.jsonl")
	var ctr Counters
	first, err := RunStudy(context.Background(), cacheSpec(), StudyConfig{Cache: store, Counters: &ctr,
		ResultsPath: coldPath, Progress: checkpointProgress(t, coldPath)})
	if err != nil {
		t.Fatal(err)
	}
	c1 := ctr.Snapshot()
	if c1.CacheHits != 0 || c1.CacheMisses != 4 || c1.PointsComputed != 4 {
		t.Fatalf("first run counters %+v, want 0 hits, 4 misses, 4 computed", c1)
	}
	if c1.SlotsSimulated == 0 || c1.ReplicasComputed != 8 {
		t.Fatalf("first run counters %+v, want 8 replicas and nonzero slots", c1)
	}

	second, err := RunStudy(context.Background(), cacheSpec(), StudyConfig{Cache: store, Counters: &ctr,
		ResultsPath: warmPath, Progress: checkpointProgress(t, warmPath)})
	if err != nil {
		t.Fatal(err)
	}
	c2 := ctr.Snapshot()
	if c2.CacheHits-c1.CacheHits != 4 || c2.CacheMisses != c1.CacheMisses {
		t.Fatalf("second run counters %+v, want 4 new hits and no new misses", c2)
	}
	if c2.SlotsSimulated != c1.SlotsSimulated || c2.ReplicasComputed != c1.ReplicasComputed {
		t.Fatalf("second run simulated: slots %d->%d replicas %d->%d, want unchanged",
			c1.SlotsSimulated, c2.SlotsSimulated, c1.ReplicasComputed, c2.ReplicasComputed)
	}
	if got, want := marshalResults(t, second), marshalResults(t, first); !reflect.DeepEqual(got, want) {
		t.Errorf("cached results differ from computed results:\n%s\nvs\n%s", got, want)
	}
	cold, err := os.ReadFile(coldPath)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := os.ReadFile(warmPath)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(cold), "\n"); n != 5 {
		t.Errorf("cold checkpoint has %d lines, want a header and 4 points", n)
	}
	if string(warm) != string(cold) {
		t.Errorf("warm checkpoint differs from the cold one:\n%s\nvs\n%s", warm, cold)
	}
}

// TestCacheMatchesUncachedRun: routing a study through the cache must not
// change its results at all.
func TestCacheMatchesUncachedRun(t *testing.T) {
	store, err := resultcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	plain, err := RunStudy(context.Background(), cacheSpec(), StudyConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cached, err := RunStudy(context.Background(), cacheSpec(), StudyConfig{Cache: store})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(marshalResults(t, plain), marshalResults(t, cached)) {
		t.Error("cache-backed run differs from plain run")
	}
}

// TestCacheChangedOptionOrSeedMisses: any change to an option value or the
// base seed must miss the cache, not reuse a stale point.
func TestCacheChangedOptionOrSeedMisses(t *testing.T) {
	store, err := resultcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var ctr Counters
	if _, err := RunStudy(context.Background(), cacheSpec(), StudyConfig{Cache: store, Counters: &ctr}); err != nil {
		t.Fatal(err)
	}
	base := ctr.Snapshot()

	optioned := cacheSpec()
	optioned.Algorithms = []AlgorithmSpec{
		{Name: Sprinklers, Options: map[string]any{"adaptive": true}},
		{Name: LoadBalanced},
	}
	if _, err := RunStudy(context.Background(), optioned, StudyConfig{Cache: store, Counters: &ctr}); err != nil {
		t.Fatal(err)
	}
	afterOpt := ctr.Snapshot()
	// The load-balanced half of the grid is unchanged and hits; the two
	// adaptive sprinklers points are new physics and must recompute.
	if hits := afterOpt.CacheHits - base.CacheHits; hits != 2 {
		t.Errorf("optioned rerun hit %d points, want 2 (the unchanged series)", hits)
	}
	if misses := afterOpt.CacheMisses - base.CacheMisses; misses != 2 {
		t.Errorf("optioned rerun missed %d points, want 2 (the changed series)", misses)
	}

	reseeded := cacheSpec()
	reseeded.Seed = 7
	if _, err := RunStudy(context.Background(), reseeded, StudyConfig{Cache: store, Counters: &ctr}); err != nil {
		t.Fatal(err)
	}
	afterSeed := ctr.Snapshot()
	if hits := afterSeed.CacheHits - afterOpt.CacheHits; hits != 0 {
		t.Errorf("reseeded rerun hit %d points, want 0 (seed is part of the identity)", hits)
	}
}

// TestCacheSharesPointsAcrossOverlappingStudies: a different study whose
// grid overlaps reuses the shared points, because replica seeds derive
// from the point's content identity, not its grid position.
func TestCacheSharesPointsAcrossOverlappingStudies(t *testing.T) {
	store, err := resultcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var ctr Counters
	wide, err := RunStudy(context.Background(), cacheSpec(), StudyConfig{Cache: store, Counters: &ctr})
	if err != nil {
		t.Fatal(err)
	}
	base := ctr.Snapshot()

	// A one-load study overlapping the wide study's 0.6 column, with the
	// algorithms listed in a different order and one relabeled — grid
	// position and presentation must not matter.
	narrow := cacheSpec()
	narrow.Name = "narrow"
	narrow.Loads = []float64{0.6}
	narrow.Algorithms = []AlgorithmSpec{
		{Name: LoadBalanced, As: "baseline"},
		{Name: Sprinklers},
	}
	got, err := RunStudy(context.Background(), narrow, StudyConfig{Cache: store, Counters: &ctr})
	if err != nil {
		t.Fatal(err)
	}
	after := ctr.Snapshot()
	if hits := after.CacheHits - base.CacheHits; hits != 2 {
		t.Errorf("overlapping study hit %d points, want 2", hits)
	}
	if after.SlotsSimulated != base.SlotsSimulated {
		t.Error("overlapping study simulated new slots for shared points")
	}
	// The shared points carry the narrow study's labels but the wide
	// study's measurements.
	for _, r := range got {
		if r.Load != 0.6 {
			t.Fatalf("unexpected point %v", r.PointKey)
		}
		wantAlg := r.Algorithm
		if wantAlg == "baseline" {
			wantAlg = LoadBalanced
		}
		found := false
		for _, w := range wide {
			if w.Algorithm == wantAlg && w.Load == 0.6 {
				found = true
				if w.MeanDelay != r.MeanDelay || w.Delivered != r.Delivered {
					t.Errorf("%s: shared point measurements differ: %+v vs %+v", r.PointKey, r, w)
				}
			}
		}
		if !found {
			t.Errorf("%s: no matching point in the wide study", r.PointKey)
		}
	}
}

// TestRunStudyCancel: canceling the context stops the study, returns the
// recorded grid-order prefix plus context.Canceled, and leaves a resumable
// checkpoint behind.
func TestRunStudyCancel(t *testing.T) {
	spec := cacheSpec()
	spec.Slots = 4_000
	path := filepath.Join(t.TempDir(), "out.jsonl")

	full, err := RunStudy(context.Background(), spec, StudyConfig{})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	recorded := 0
	partial, err := RunStudy(ctx, spec, StudyConfig{
		ResultsPath: path,
		Parallelism: 1,
		Progress: func(done, total int, r PointResult) {
			recorded = done
			if done == 1 {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled run returned %v, want context.Canceled", err)
	}
	if len(partial) == 0 || len(partial) >= spec.NumPoints() {
		t.Fatalf("canceled run returned %d points, want a proper prefix (recorded %d)", len(partial), recorded)
	}
	for i, r := range partial {
		if !reflect.DeepEqual(r, full[i]) {
			t.Errorf("partial point %d differs from the uninterrupted run", i)
		}
	}

	// The checkpoint must resume to a byte-identical complete study.
	resumed, err := RunStudy(context.Background(), spec, StudyConfig{ResultsPath: path})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(marshalResults(t, resumed), marshalResults(t, full)) {
		t.Error("resumed-after-cancel results differ from an uninterrupted run")
	}
}

// TestCheckpointVersionMismatch: a v1 checkpoint (no "v" field) is refused
// with an error that names both versions instead of a generic mismatch.
func TestCheckpointVersionMismatch(t *testing.T) {
	spec := cacheSpec().WithDefaults()
	b, err := json.Marshal(struct {
		Spec *Spec `json:"spec"`
	}{Spec: &spec})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "v1.jsonl")
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = RunStudy(context.Background(), spec, StudyConfig{ResultsPath: path})
	if err == nil {
		t.Fatal("v1 checkpoint accepted by a v2 reader")
	}
	msg := err.Error()
	for _, want := range []string{"v1", "v2", "checkpoint schema"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q does not mention %q", msg, want)
		}
	}
}

// TestCorruptCacheEntryQuarantinedNotFatal: a truncated or garbage cache
// entry must read as a miss — quarantined, counted, recomputed — and the
// study must complete byte-identical to an uncorrupted run.
func TestCorruptCacheEntryQuarantinedNotFatal(t *testing.T) {
	dir := t.TempDir()
	store, err := resultcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := cacheSpec()
	var ctr Counters
	clean, err := RunStudy(context.Background(), spec, StudyConfig{Cache: store, Counters: &ctr})
	if err != nil {
		t.Fatal(err)
	}

	// Corrupt one entry in place (a torn write), truncate another to zero
	// (a crash mid-rename survivor), and leave the rest intact.
	norm := spec.WithDefaults()
	keys := norm.Points()
	garbled := pointKey(norm.PointIdentity(keys[0]))
	if err := store.Put(garbled, []byte(`{"identity":{"torn`)); err != nil {
		t.Fatal(err)
	}
	truncated := pointKey(norm.PointIdentity(keys[1]))
	if err := store.Put(truncated, nil); err != nil {
		t.Fatal(err)
	}

	again, err := RunStudy(context.Background(), spec, StudyConfig{Cache: store, Counters: &ctr})
	if err != nil {
		t.Fatalf("corrupt cache entries failed the study: %v", err)
	}
	if !reflect.DeepEqual(marshalResults(t, clean), marshalResults(t, again)) {
		t.Error("results after corruption differ from the clean run")
	}
	if got := ctr.CacheCorrupt.Load(); got != 2 {
		t.Errorf("CacheCorrupt = %d, want 2", got)
	}
	// The bad bytes are preserved for post-mortem; the keys themselves now
	// hold the recomputed (valid) entries.
	for _, key := range []string{garbled, truncated} {
		if _, err := os.Stat(filepath.Join(dir, "corrupt", key+".json")); err != nil {
			t.Errorf("quarantined entry %s not preserved in corrupt/: %v", key, err)
		}
		b, ok, err := store.Get(key)
		if err != nil || !ok {
			t.Errorf("recomputed entry %s not re-stored: ok=%v err=%v", key, ok, err)
		} else if !json.Valid(b) {
			t.Errorf("re-stored entry %s is not valid JSON", key)
		}
	}
	// The recomputed points were re-stored; a third run is a pure read.
	var third Counters
	if _, err := RunStudy(context.Background(), spec, StudyConfig{Cache: store, Counters: &third}); err != nil {
		t.Fatal(err)
	}
	if got := third.ReplicasComputed.Load(); got != 0 {
		t.Errorf("third run recomputed %d replicas, want 0", got)
	}
}
