package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"sprinklers/internal/cluster"
	"sprinklers/internal/experiment"
)

// promFamily is one parsed metric family from the /metrics exposition.
type promFamily struct {
	typ     string
	samples map[string]float64 // full sample key, labels included
}

// parseProm strictly parses a Prometheus text exposition: every sample
// must belong to a declared family, no family is declared twice, no
// sample key repeats, and every value parses as a float.
func parseProm(t *testing.T, text string) map[string]*promFamily {
	t.Helper()
	fams := map[string]*promFamily{}
	resolve := func(base string) *promFamily {
		if f, ok := fams[base]; ok {
			return f
		}
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			trimmed, ok := strings.CutSuffix(base, suffix)
			if !ok {
				continue
			}
			if f, ok := fams[trimmed]; ok && f.typ == "histogram" {
				return f
			}
		}
		return nil
	}
	for _, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			name, kind := parts[2], parts[3]
			if _, dup := fams[name]; dup {
				t.Fatalf("metric family %s declared twice", name)
			}
			switch kind {
			case "counter", "gauge", "histogram":
			default:
				t.Fatalf("metric family %s has unknown type %q", name, kind)
			}
			fams[name] = &promFamily{typ: kind, samples: map[string]float64{}}
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("unparseable comment line %q", line)
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		key, valStr := line[:i], line[i+1:]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("sample %q: bad value %q: %v", key, valStr, err)
		}
		base := key
		if j := strings.IndexByte(key, '{'); j >= 0 {
			base = key[:j]
			if !strings.HasSuffix(key, "}") {
				t.Fatalf("sample %q: unterminated label set", key)
			}
		}
		fam := resolve(base)
		if fam == nil {
			t.Fatalf("sample %q has no declared # TYPE family", key)
		}
		if _, dup := fam.samples[key]; dup {
			t.Fatalf("sample key %q emitted twice", key)
		}
		fam.samples[key] = val
	}
	return fams
}

// checkHistogram asserts the client-library histogram invariants on one
// family: le bounds ascend, cumulative bucket counts never decrease, the
// +Inf bucket equals _count, and _sum is present and non-negative.
func checkHistogram(t *testing.T, name string, fam *promFamily) {
	t.Helper()
	type bucket struct {
		le  float64
		cum float64
	}
	var buckets []bucket
	var count, sum float64
	var haveCount, haveSum bool
	for key, val := range fam.samples {
		switch {
		case strings.HasPrefix(key, name+"_bucket{le=\""):
			leStr := strings.TrimSuffix(strings.TrimPrefix(key, name+"_bucket{le=\""), "\"}")
			le := math.Inf(1)
			if leStr != "+Inf" {
				var err error
				le, err = strconv.ParseFloat(leStr, 64)
				if err != nil {
					t.Fatalf("%s: bad le %q: %v", name, leStr, err)
				}
			}
			buckets = append(buckets, bucket{le, val})
		case key == name+"_count":
			count, haveCount = val, true
		case key == name+"_sum":
			sum, haveSum = val, true
		default:
			t.Fatalf("%s: unexpected histogram sample %q", name, key)
		}
	}
	if !haveCount || !haveSum {
		t.Fatalf("%s: missing _count or _sum", name)
	}
	if len(buckets) == 0 {
		t.Fatalf("%s: no buckets", name)
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i].le < buckets[j].le })
	prev := -1.0
	for i, b := range buckets {
		if b.cum < prev {
			t.Fatalf("%s: bucket le=%g cumulative count %g < previous %g", name, b.le, b.cum, prev)
		}
		prev = b.cum
		if i == len(buckets)-1 && !math.IsInf(b.le, 1) {
			t.Fatalf("%s: last bucket le=%g is not +Inf", name, b.le)
		}
	}
	if inf := buckets[len(buckets)-1].cum; inf != count {
		t.Fatalf("%s: +Inf bucket %g != _count %g", name, inf, count)
	}
	if sum < 0 {
		t.Fatalf("%s: negative _sum %g", name, sum)
	}
	if count > 0 && sum == 0 {
		t.Logf("%s: count %g with zero sum (all sub-resolution observations)", name, count)
	}
}

// checkExposition strictly parses one /metrics body and checks every
// histogram family's invariants.
func checkExposition(t *testing.T, body string) map[string]*promFamily {
	t.Helper()
	fams := parseProm(t, body)
	histograms := 0
	for name, fam := range fams {
		if fam.typ == "histogram" {
			histograms++
			checkHistogram(t, name, fam)
		}
		if len(fam.samples) == 0 {
			t.Errorf("family %s declared but has no samples", name)
		}
	}
	if histograms < 5 {
		t.Errorf("found %d histogram families, want >= 5", histograms)
	}
	return fams
}

// TestMetricsStrictParse scrapes /metrics while a study is in flight and
// after a finished one, and holds the exposition to client-library rules:
// unique family declarations, every sample under a declared TYPE, unique
// sample keys, parseable values, and full histogram invariants on every
// histogram family.
func TestMetricsStrictParse(t *testing.T) {
	srv, client := newTestServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// Mid-flight: one point recorded (so the cache histograms are being
	// fed), the rest still running.
	live := testSpec("metrics-live")
	live.Slots = 400_000
	status, err := srv.Submit(live)
	if err != nil {
		t.Fatal(err)
	}
	st, _ := srv.lookup(status.ID)
	for st.Status().Done == 0 {
		if ctx.Err() != nil {
			t.Fatal("the live study recorded no point")
		}
		time.Sleep(time.Millisecond)
	}
	fams := checkExposition(t, httpGet(t, client, "/metrics"))
	if got := fams["sprinklerd_studies_running"].samples["sprinklerd_studies_running"]; got != 1 || st.Status().State != StateRunning {
		t.Errorf("scrape was not mid-flight: studies_running %v, state %s", got, st.Status().State)
	}
	if err := client.cancel(ctx, status.ID); err != nil {
		t.Fatal(err)
	}
	if _, _, err := client.Results(ctx, status.ID, true); err != nil {
		t.Fatal(err)
	}

	if _, err := client.Run(ctx, testSpec("metrics-strict"), nil); err != nil {
		t.Fatal(err)
	}
	fams = checkExposition(t, httpGet(t, client, "/metrics"))

	// The study path must have fed the cache histograms.
	cacheGet := fams["sprinklerd_cache_get_seconds"]
	if cacheGet == nil || cacheGet.samples["sprinklerd_cache_get_seconds_count"] == 0 {
		t.Error("sprinklerd_cache_get_seconds recorded no observations after a study")
	}
	bi := fams["sprinklerd_build_info"]
	if bi == nil {
		t.Fatal("sprinklerd_build_info missing")
	}
	for key, val := range bi.samples {
		if val != 1 {
			t.Errorf("build_info sample %q = %g, want 1", key, val)
		}
		if !strings.Contains(key, "go_version=\""+runtime.Version()+"\"") {
			t.Errorf("build_info %q does not carry go_version=%q", key, runtime.Version())
		}
	}
}

// TestCacheBoundSweeper: with CacheMaxBytes set, the daemon's scheduled
// sweeper evicts the cache down to the bound, and /metrics shows both the
// evictions and the bounded size.
func TestCacheBoundSweeper(t *testing.T) {
	const bound = 4096
	srv, err := New(Options{CacheDir: t.TempDir(), CacheMaxBytes: bound, SweepInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx) //nolint:errcheck
	})
	client := &Client{BaseURL: ts.URL}
	// Three differently seeded studies write more result envelopes than
	// the bound holds.
	for seed := int64(11); seed <= 13; seed++ {
		spec := testSpec("evict")
		spec.Seed = seed
		if _, err := client.Run(context.Background(), spec, nil); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		fams := parseProm(t, httpGet(t, client, "/metrics"))
		evicted := fams["sprinklerd_cache_evictions_total"].samples["sprinklerd_cache_evictions_total"]
		size := fams["sprinklerd_cache_bytes"].samples["sprinklerd_cache_bytes"]
		if evicted >= 1 && size <= bound {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("cache never swept down to %d bytes: %v evictions, %v bytes", bound, evicted, size)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCacheCorruptCountsEachEntryOnce: sprinklerd_cache_corrupt_total
// rises by exactly one per quarantined entry, whether a study's cache
// pre-pass finds a corrupt point entry or a job finds a corrupt replica
// envelope.
func TestCacheCorruptCountsEachEntryOnce(t *testing.T) {
	srv, client := newTestServer(t)
	corrupt := func() float64 {
		t.Helper()
		fams := parseProm(t, httpGet(t, client, "/metrics"))
		return fams["sprinklerd_cache_corrupt_total"].samples["sprinklerd_cache_corrupt_total"]
	}

	spec := testSpec("corrupt-point").WithDefaults()
	key, _ := spec.PointIdentity(spec.Points()[0]).KeyJSON()
	if err := srv.Cache().Put(key, []byte(`{"identity":{"torn`)); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Run(context.Background(), spec, nil); err != nil {
		t.Fatal(err)
	}
	if got := corrupt(); got != 1 {
		t.Errorf("after a corrupt point entry: cache_corrupt_total = %v, want 1", got)
	}

	job := jobFor(testSpec("corrupt-replica"), 0, 0)
	if err := srv.Cache().Put(job.Spec.PointIdentity(job.Point).ReplicaKey(job.Rep), []byte("garbage")); err != nil {
		t.Fatal(err)
	}
	if jr, resp := postJob(t, client.BaseURL, job); resp.StatusCode != http.StatusOK || jr.Source != cluster.SourceComputed {
		t.Fatalf("job over a corrupt envelope: status %d source %q, want 200 %q", resp.StatusCode, jr.Source, cluster.SourceComputed)
	}
	if got := corrupt(); got != 2 {
		t.Errorf("after a corrupt replica envelope: cache_corrupt_total = %v, want 2", got)
	}
}

// TestVersionEndpoint: the version endpoint reports the running Go
// version and the configured node/role identity.
func TestVersionEndpoint(t *testing.T) {
	_, client := newTestServer(t)
	v, err := client.Version(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if v.GoVersion != runtime.Version() {
		t.Errorf("GoVersion = %q, want %q", v.GoVersion, runtime.Version())
	}
	if v.Node == "" {
		t.Error("Node is empty; want the default node name")
	}
}

// TestTraceEndpointLocalStudy: a standalone daemon traces its own study
// executions — the timeline has the study root, one simulate span per
// replica, one cache pre-pass per batch and per-point aggregate events, all
// under the study's trace id — and the chrome export is valid trace-event
// JSON. A dense study is one batch; an adaptive one runs a batch per round
// through the same executor and is traced the same way.
func TestTraceEndpointLocalStudy(t *testing.T) {
	adaptive, err := experiment.BuiltinSpec("adaptive-smoke")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		spec   experiment.Spec
		points int
	}{
		{testSpec("trace-local"), 4},
		{adaptive, 12},
	} {
		t.Run(tc.spec.Name, func(t *testing.T) {
			traceLocalStudy(t, tc.spec, tc.points)
		})
	}
}

func traceLocalStudy(t *testing.T, spec experiment.Spec, points int) {
	_, client := newTestServer(t)
	rs, err := client.Run(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != points {
		t.Fatalf("%d points recorded, want %d", len(rs), points)
	}
	id := StudyID(spec)

	tr, err := client.Trace(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]int{}
	for _, sp := range tr.Spans {
		byName[sp.Name]++
		if sp.Trace != id {
			t.Fatalf("span %s has trace %q, want %q", sp.ID, sp.Trace, id)
		}
		if sp.Study != id {
			t.Fatalf("span %s has study %q, want %q", sp.ID, sp.Study, id)
		}
	}
	// Against a fresh cache every point is computed: one simulate span per
	// replica it ran, one aggregate event and one cas-store span per point,
	// and one cache pre-pass per batch (round).
	wantSim, rounds := 0, 1
	for _, r := range rs {
		wantSim += r.Replicas
		rounds = max(rounds, r.RefineRound+1)
	}
	if norm := spec.WithDefaults(); norm.Kind == experiment.SimStudy && wantSim != norm.NumPoints()*norm.Replicas {
		t.Errorf("dense study ran %d replicas, want %d", wantSim, norm.NumPoints()*norm.Replicas)
	}
	for name, want := range map[string]int{
		"simulate":      wantSim,
		"study":         1,
		"aggregate":     points,
		"cas-store":     points,
		"cache-prepass": rounds,
		"cache-hit":     0,
	} {
		if byName[name] != want {
			t.Errorf("%s spans = %d, want %d (timeline: %v)", name, byName[name], want, byName)
		}
	}

	var buf bytes.Buffer
	if err := client.TraceChrome(context.Background(), id, &buf); err != nil {
		t.Fatal(err)
	}
	var chrome struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &chrome); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if len(chrome.TraceEvents) == 0 {
		t.Fatal("chrome trace has no events")
	}

	// An unknown study has no trace.
	_, err = client.Trace(context.Background(), "deadbeefdeadbeef")
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusNotFound {
		t.Errorf("trace of unknown study: got %v, want 404", err)
	}
}

// TestTraceDisabledByOption: TraceSpans < 0 turns the journal off and
// the trace endpoint reports it.
func TestTraceDisabledByOption(t *testing.T) {
	srv, err := New(Options{CacheDir: t.TempDir(), TraceSpans: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background()) //nolint:errcheck
	if srv.journal != nil {
		t.Fatal("journal allocated despite TraceSpans < 0")
	}
	if sc := srv.traceCtx("x"); sc.Enabled() {
		t.Fatal("trace context enabled despite disabled journal")
	}
}
