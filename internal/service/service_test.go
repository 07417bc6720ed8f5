package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"sprinklers/internal/experiment"
)

func testSpec(name string) experiment.Spec {
	return experiment.Spec{
		Name:       name,
		Kind:       experiment.SimStudy,
		Algorithms: experiment.Algs(experiment.Sprinklers, experiment.LoadBalanced),
		Traffic:    experiment.Traffics(experiment.UniformTraffic),
		Loads:      []float64{0.3, 0.6},
		Sizes:      []int{8},
		Replicas:   2,
		Slots:      1_000,
		Seed:       1,
	}
}

func newTestServer(t *testing.T) (*Server, *Client) {
	t.Helper()
	return newTestServerIn(t, t.TempDir())
}

// newTestServerIn starts a server on cacheDir; the test's cleanup shuts it
// down (a second Shutdown after the test's own is harmless).
func newTestServerIn(t *testing.T, cacheDir string) (*Server, *Client) {
	t.Helper()
	srv, err := New(Options{CacheDir: cacheDir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx) //nolint:errcheck
	})
	return srv, &Client{BaseURL: ts.URL}
}

// TestRemoteMatchesLocal: a study run through the daemon returns results
// byte-identical to a local RunStudy of the same spec, and the progress
// stream delivers every point in grid order.
func TestRemoteMatchesLocal(t *testing.T) {
	_, client := newTestServer(t)
	spec := testSpec("remote-vs-local")

	local, err := experiment.RunStudy(context.Background(), spec, experiment.StudyConfig{})
	if err != nil {
		t.Fatal(err)
	}

	var events []ProgressEvent
	remote, err := client.Run(context.Background(), spec, func(ev ProgressEvent) {
		events = append(events, ev)
	})
	if err != nil {
		t.Fatal(err)
	}
	lb, _ := json.Marshal(local)
	rb, _ := json.Marshal(remote)
	if !bytes.Equal(lb, rb) {
		t.Errorf("remote results differ from local:\n%s\nvs\n%s", rb, lb)
	}
	if len(events) != spec.NumPoints() {
		t.Fatalf("streamed %d progress events, want %d", len(events), spec.NumPoints())
	}
	for i, ev := range events {
		if ev.Done != i+1 || !reflect.DeepEqual(ev.Point.PointKey, local[i].PointKey) {
			t.Errorf("event %d = done %d point %v, want grid order", i, ev.Done, ev.Point.PointKey)
		}
	}
}

// TestResubmissionCountsAsDedupe: resubmitting a finished spec joins the
// completed study — no new execution, no new simulation slots.
func TestResubmissionCountsAsDedupe(t *testing.T) {
	srv, client := newTestServer(t)
	spec := testSpec("dedupe")
	if _, err := client.Run(context.Background(), spec, nil); err != nil {
		t.Fatal(err)
	}
	slotsBefore := srv.TotalCounters().SlotsSimulated

	status, err := client.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if status.Created || status.State != StateDone {
		t.Fatalf("resubmission = %+v, want joined done study", status)
	}
	if got := srv.TotalCounters().SlotsSimulated; got != slotsBefore {
		t.Errorf("resubmission simulated %d new slots, want 0", got-slotsBefore)
	}
	if srv.deduped.Load() != 1 {
		t.Errorf("deduped counter = %d, want 1", srv.deduped.Load())
	}
}

// TestConcurrentIdenticalSubmissionsShareOneExecution is the in-flight
// dedup property, meaningful under -race: many goroutines submitting the
// same spec concurrently converge on one study id and one execution.
func TestConcurrentIdenticalSubmissionsShareOneExecution(t *testing.T) {
	srv, client := newTestServer(t)
	spec := testSpec("concurrent")

	const n = 8
	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, err := client.Submit(context.Background(), spec)
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			ids[i] = status.ID
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if ids[i] != ids[0] {
			t.Fatalf("submission %d got id %s, want %s", i, ids[i], ids[0])
		}
	}
	if state, _, err := client.Results(context.Background(), ids[0], true); err != nil || state != StateDone {
		t.Fatalf("study ended %v err %v, want done", state, err)
	}
	if runs := srv.TotalCounters().StudiesRun; runs != 1 {
		t.Errorf("%d executions started for %d identical submissions, want 1", runs, n)
	}
	if srv.submitted.Load() != 1 || srv.deduped.Load() != n-1 {
		t.Errorf("submitted %d deduped %d, want 1 and %d", srv.submitted.Load(), srv.deduped.Load(), n-1)
	}
	// Every point computed exactly once.
	if pts := srv.TotalCounters().PointsComputed; pts != int64(spec.NumPoints()) {
		t.Errorf("computed %d points, want %d", pts, spec.NumPoints())
	}
}

// TestCancelEndpoint: a canceled study lands in state canceled with a
// grid-order prefix of results, and a daemon restarted on the same cache
// resumes it on resubmission from the cache alone: no point is computed
// twice across the two lives, and nothing but the cache is on disk.
func TestCancelEndpoint(t *testing.T) {
	cacheDir := t.TempDir()
	srv, client := newTestServerIn(t, cacheDir)
	spec := testSpec("cancelme")
	// Long enough that the study is still running when the cancel lands
	// (the submit+cancel round trip is microseconds against ~10^6 slots of
	// work), short enough to finish quickly under -race after the restart.
	spec.Slots = 60_000
	spec.Loads = []float64{0.3, 0.5, 0.7, 0.9}

	status, err := client.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !status.Created {
		t.Fatalf("expected a fresh execution, got %+v", status)
	}
	if err := client.cancel(context.Background(), status.ID); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	state, prefix, err := client.Results(ctx, status.ID, true)
	if err != nil {
		t.Fatal(err)
	}
	if state != StateCanceled {
		t.Fatalf("state after cancel = %s, want canceled", state)
	}
	if len(prefix) >= spec.NumPoints() {
		t.Errorf("canceled study returned %d/%d points, expected a prefix", len(prefix), spec.NumPoints())
	}
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	firstLife := srv.TotalCounters()

	// Resubmission to a daemon restarted on the same cache starts a fresh
	// execution under the same id and serves the computed points from the
	// cache.
	srv2, client2 := newTestServerIn(t, cacheDir)
	status2, err := client2.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !status2.Created || status2.ID != status.ID {
		t.Fatalf("resubmission of canceled study = %+v, want a fresh execution under the same id", status2)
	}
	state, remote, err := client2.Results(ctx, status.ID, true)
	if err != nil || state != StateDone {
		t.Fatalf("restarted study ended %v err %v, want done", state, err)
	}
	local, err := experiment.RunStudy(context.Background(), spec, experiment.StudyConfig{})
	if err != nil {
		t.Fatal(err)
	}
	lb, _ := json.Marshal(local)
	rb, _ := json.Marshal(remote)
	if !bytes.Equal(lb, rb) {
		t.Errorf("resumed results differ from local:\n%s\nvs\n%s", rb, lb)
	}
	secondLife := srv2.TotalCounters()
	if got := firstLife.PointsComputed + secondLife.PointsComputed; got != int64(spec.NumPoints()) {
		t.Errorf("computed %d + %d points across both lives, want exactly %d",
			firstLife.PointsComputed, secondLife.PointsComputed, spec.NumPoints())
	}
	if secondLife.CacheHits < int64(len(prefix)) {
		t.Errorf("second life hit the cache %d times, want at least the %d-point canceled prefix",
			secondLife.CacheHits, len(prefix))
	}
	if _, err := os.Stat(filepath.Join(cacheDir, "studies")); !os.IsNotExist(err) {
		t.Errorf("cache directory holds a studies entry (stat: %v); the cache must be the only durable write", err)
	}
}

// TestGracefulShutdownDrains: Shutdown cancels running studies and
// refuses new submissions.
func TestGracefulShutdownDrains(t *testing.T) {
	srv, err := New(Options{CacheDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec("drainme")
	spec.Slots = 300_000 // never finishes within the test; Shutdown must cancel it
	status, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown did not drain: %v", err)
	}
	st, ok := srv.lookup(status.ID)
	if !ok {
		t.Fatal("study vanished during shutdown")
	}
	if got := st.Status().State; got != StateCanceled {
		t.Errorf("study state after drain = %s, want canceled", got)
	}
	if _, err := srv.Submit(testSpec("late")); err == nil {
		t.Error("submission accepted after shutdown began")
	}
}

// TestTerminalStudyEviction: the study table keeps at most
// maxTerminalStudies finished studies (oldest evicted first) and never
// evicts a running one — the cache, not the table, is the durable store.
func TestTerminalStudyEviction(t *testing.T) {
	srv, err := New(Options{CacheDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(i int, state State) {
		st := newStudy(fmt.Sprintf("%04d", i), experiment.Spec{})
		st.cancel = func() {}
		st.state = state
		srv.seq++
		st.seq = srv.seq
		srv.studies[st.id] = st
	}
	mk(0, StateRunning) // oldest of all, but running: must survive
	for i := 1; i <= maxTerminalStudies+10; i++ {
		mk(i, StateDone)
	}
	srv.mu.Lock()
	srv.evictTerminalLocked()
	srv.mu.Unlock()
	if n := len(srv.studies); n != maxTerminalStudies+1 {
		t.Fatalf("table holds %d studies, want %d terminal + 1 running", n, maxTerminalStudies)
	}
	if _, ok := srv.lookup("0000"); !ok {
		t.Error("running study was evicted")
	}
	if _, ok := srv.lookup("0001"); ok {
		t.Error("oldest terminal study survived eviction")
	}
	if _, ok := srv.lookup(fmt.Sprintf("%04d", maxTerminalStudies+10)); !ok {
		t.Error("newest terminal study was evicted")
	}
}

// TestMetricsAndCatalogEndpoints sanity-checks the two discovery surfaces.
func TestMetricsAndCatalogEndpoints(t *testing.T) {
	_, client := newTestServer(t)
	if _, err := client.Run(context.Background(), testSpec("metrics"), nil); err != nil {
		t.Fatal(err)
	}

	body := httpGet(t, client, "/metrics")
	for _, metric := range []string{
		"sprinklerd_cache_hits_total", "sprinklerd_cache_misses_total",
		"sprinklerd_sim_slots_total", "sprinklerd_studies_running",
	} {
		if !strings.Contains(body, metric) {
			t.Errorf("/metrics missing %s", metric)
		}
	}

	var catalog struct {
		Architectures []struct {
			Name string `json:"name"`
		} `json:"architectures"`
	}
	if err := json.Unmarshal([]byte(httpGet(t, client, "/api/v1/catalog")), &catalog); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, a := range catalog.Architectures {
		if a.Name == "sprinklers" {
			found = true
		}
	}
	if !found {
		t.Errorf("catalog does not list the sprinklers architecture: %+v", catalog)
	}
}

// TestSubmitRejectsBadSpec maps validation failures to 400 with a message.
func TestSubmitRejectsBadSpec(t *testing.T) {
	_, client := newTestServer(t)
	bad := testSpec("bad")
	bad.Loads = []float64{2.0}
	_, err := client.Submit(context.Background(), bad)
	if err == nil || !strings.Contains(err.Error(), "400") {
		t.Fatalf("bad spec submission returned %v, want a 400 error", err)
	}
}

// TestRenderEndpoint serves the same text a local render produces.
func TestRenderEndpoint(t *testing.T) {
	_, client := newTestServer(t)
	spec := testSpec("render")
	results, err := client.Run(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	var local bytes.Buffer
	experiment.RenderStudyCurves(&local, results)
	remote := httpGet(t, client, "/api/v1/studies/"+StudyID(spec)+"/render?format=curves")
	if remote != local.String() {
		t.Errorf("remote render differs from local:\n%q\nvs\n%q", remote, local.String())
	}
}

func httpGet(t *testing.T, c *Client, path string) string {
	t.Helper()
	resp, err := c.httpc().Get(c.url(path))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("GET %s = %s: %s", path, resp.Status, buf.String())
	}
	return buf.String()
}
