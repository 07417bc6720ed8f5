package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sprinklers/internal/cluster"
	"sprinklers/internal/experiment"
	"sprinklers/internal/faultinject"
	"sprinklers/internal/trace"
)

// postJob dispatches one job to a daemon and decodes the response.
func postJob(t *testing.T, baseURL string, req cluster.JobRequest) (cluster.JobResponse, *http.Response) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(baseURL+"/api/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	var jr cluster.JobResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
			t.Fatal(err)
		}
	}
	return jr, resp
}

// jobFor builds the job request of one (point, replica) of a spec.
func jobFor(spec experiment.Spec, pi, rep int, peers ...string) cluster.JobRequest {
	norm := spec.WithDefaults()
	return cluster.JobRequest{
		Spec:    norm,
		Point:   norm.Points()[pi],
		Rep:     rep,
		LeaseMS: 30_000,
		Peers:   peers,
	}
}

// TestJobEndpointComputesThenServesFromCache: the first dispatch of a job
// simulates; the identical re-dispatch (what a coordinator does after its
// first attempt's response was lost) is a cache read — same point bytes,
// zero extra replicas computed.
func TestJobEndpointComputesThenServesFromCache(t *testing.T) {
	srv, client := newTestServer(t)
	spec := testSpec("job-cache")
	job := jobFor(spec, 0, 1)

	first, resp := postJob(t, client.BaseURL, job)
	if resp.StatusCode != http.StatusOK || first.Source != cluster.SourceComputed {
		t.Fatalf("first dispatch: status %d source %q, want 200 %q", resp.StatusCode, first.Source, cluster.SourceComputed)
	}
	computed := srv.Counters().ReplicasComputed.Load()

	second, resp := postJob(t, client.BaseURL, job)
	if resp.StatusCode != http.StatusOK || second.Source != cluster.SourceCache {
		t.Fatalf("re-dispatch: status %d source %q, want 200 %q", resp.StatusCode, second.Source, cluster.SourceCache)
	}
	if got := srv.Counters().ReplicasComputed.Load(); got != computed {
		t.Errorf("re-dispatch computed %d extra replicas, want 0", got-computed)
	}
	fb, _ := json.Marshal(first.Point)
	sb, _ := json.Marshal(second.Point)
	if !bytes.Equal(fb, sb) {
		t.Errorf("cache-served point differs from computed: %s vs %s", sb, fb)
	}
}

// TestJobEndpointPeerFill: a worker that has never simulated a replica
// adopts it from a sibling's cache instead of recomputing.
func TestJobEndpointPeerFill(t *testing.T) {
	_, peer := newTestServer(t)
	fresh, freshClient := newTestServer(t)
	spec := testSpec("job-peer")

	ref, _ := postJob(t, peer.BaseURL, jobFor(spec, 1, 0))
	got, resp := postJob(t, freshClient.BaseURL, jobFor(spec, 1, 0, peer.BaseURL))
	if resp.StatusCode != http.StatusOK || got.Source != cluster.SourcePeer {
		t.Fatalf("status %d source %q, want 200 %q", resp.StatusCode, got.Source, cluster.SourcePeer)
	}
	if fresh.Counters().ReplicasComputed.Load() != 0 {
		t.Error("peer-filled worker simulated; it must not")
	}
	if fresh.Counters().PeerCacheFills.Load() != 1 {
		t.Errorf("PeerCacheFills = %d, want 1", fresh.Counters().PeerCacheFills.Load())
	}
	rb, _ := json.Marshal(ref.Point)
	gb, _ := json.Marshal(got.Point)
	if !bytes.Equal(rb, gb) {
		t.Errorf("peer-filled point differs: %s vs %s", gb, rb)
	}
}

// TestJobPeerFillOversizedBodyIsAMiss: a peer whose CAS entry is one byte
// past cluster's 16 MiB body cap is a miss. The body is a valid replica
// envelope padded with JSON whitespace, so only the cap keeps the worker
// from adopting it: the job computes, stores the replica it computed, and
// counts no peer fill.
func TestJobPeerFillOversizedBodyIsAMiss(t *testing.T) {
	const peerBodyCap = 16 << 20
	helper, helperClient := newTestServer(t)
	fresh, freshClient := newTestServer(t)
	spec := testSpec("job-peer-oversized")
	job := jobFor(spec, 1, 0)
	if _, resp := postJob(t, helperClient.BaseURL, job); resp.StatusCode != http.StatusOK {
		t.Fatalf("seeding the envelope: status %d", resp.StatusCode)
	}
	rkey := spec.WithDefaults().PointIdentity(job.Point).ReplicaKey(job.Rep)
	env, ok, err := helper.Cache().Get(rkey)
	if err != nil || !ok {
		t.Fatalf("seeded envelope missing: %v", err)
	}
	body := append(env, bytes.Repeat([]byte(" "), peerBodyCap+1-len(env))...)
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write(body) //nolint:errcheck
	}))
	t.Cleanup(peer.Close)

	got, resp := postJob(t, freshClient.BaseURL, jobFor(spec, 1, 0, peer.URL))
	if resp.StatusCode != http.StatusOK || got.Source != cluster.SourceComputed {
		t.Fatalf("status %d source %q, want 200 %q", resp.StatusCode, got.Source, cluster.SourceComputed)
	}
	if n := fresh.Counters().PeerCacheFills.Load(); n != 0 {
		t.Errorf("PeerCacheFills = %d, want 0", n)
	}
	stored, ok, err := fresh.Cache().Get(rkey)
	if err != nil || !ok {
		t.Fatalf("computed envelope not stored: %v", err)
	}
	if len(stored) > peerBodyCap {
		t.Errorf("stored a %d-byte entry: the oversized peer body was adopted", len(stored))
	}
}

// TestJobEndpointRejectsBadRequests: malformed and invalid jobs are 400
// (permanent — the coordinator must not retry them).
func TestJobEndpointRejectsBadRequests(t *testing.T) {
	_, client := newTestServer(t)
	resp, err := http.Post(client.BaseURL+"/api/v1/jobs", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: status %d, want 400", resp.StatusCode)
	}
	job := jobFor(testSpec("job-bad"), 0, 0)
	job.Rep = 99
	if _, resp := postJob(t, client.BaseURL, job); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("out-of-range replica: status %d, want 400", resp.StatusCode)
	}
}

// TestCASEndpoint: raw entries round-trip; unknown keys are 404 and
// malformed keys 400.
func TestCASEndpoint(t *testing.T) {
	srv, client := newTestServer(t)
	spec := testSpec("cas").WithDefaults()
	id := spec.PointIdentity(spec.Points()[0])
	key := id.ReplicaKey(0)
	want := []byte(`{"probe":"value"}`)
	if err := srv.Cache().Put(key, want); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(client.BaseURL + "/api/v1/cas/" + key)
	if err != nil {
		t.Fatal(err)
	}
	got := new(bytes.Buffer)
	got.ReadFrom(resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Equal(got.Bytes(), want) {
		t.Errorf("GET cas = %d %q, want 200 %q", resp.StatusCode, got.Bytes(), want)
	}

	resp, err = http.Get(client.BaseURL + "/api/v1/cas/" + strings.Repeat("0", 64))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown key: status %d, want 404", resp.StatusCode)
	}

	resp, err = http.Get(client.BaseURL + "/api/v1/cas/..%2Fescape")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed key: status %d, want 400", resp.StatusCode)
	}
}

// TestClientRetriesTransientFailures: 5xx responses are retried with
// backoff until the daemon recovers; 4xx are not retried.
func TestClientRetriesTransientFailures(t *testing.T) {
	var submits, flaky int
	_, backend := newTestServer(t)
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/api/v1/studies" {
			submits++
			if submits <= 2 {
				flaky++
				http.Error(w, `{"error":"transient"}`, http.StatusBadGateway)
				return
			}
		}
		req, _ := http.NewRequest(r.Method, backend.BaseURL+r.URL.String(), r.Body)
		req.Header = r.Header
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		w.WriteHeader(resp.StatusCode)
		buf := new(bytes.Buffer)
		buf.ReadFrom(resp.Body) //nolint:errcheck
		w.Write(buf.Bytes())    //nolint:errcheck
	}))
	t.Cleanup(proxy.Close)

	client := &Client{BaseURL: proxy.URL}
	if _, err := client.Submit(context.Background(), testSpec("retry")); err != nil {
		t.Fatalf("submit through a flaky front: %v (after %d attempts)", err, submits)
	}
	if flaky != 2 || submits != 3 {
		t.Errorf("submits = %d (flaky %d), want 3 attempts absorbing 2 faults", submits, flaky)
	}

	bad := testSpec("retry-bad")
	bad.Sizes = []int{-3}
	before := submits
	if _, err := client.Submit(context.Background(), bad); err == nil {
		t.Fatal("invalid spec submitted successfully")
	}
	if submits != before+1 {
		t.Errorf("400 response was retried (%d extra submits); 4xx must be permanent", submits-before-1)
	}
}

// TestStreamReconnectsWithFrom: an SSE stream cut mid-event is resumed
// with ?from=N — across any number of drops the caller sees every event
// exactly once, in grid order.
func TestStreamReconnectsWithFrom(t *testing.T) {
	_, backend := newTestServer(t)
	spec := testSpec("sse-reconnect")
	status, err := backend.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}

	// A front that serves at most one event per connection, then severs it
	// with no terminal line — the pathological flaky network.
	var conns int
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasSuffix(r.URL.Path, "/events") {
			http.NotFound(w, r)
			return
		}
		conns++
		resp, err := http.Get(backend.BaseURL + r.URL.String())
		if err != nil {
			panic(http.ErrAbortHandler)
		}
		defer resp.Body.Close()
		w.Header().Set("Content-Type", "text/event-stream")
		var payload bytes.Buffer
		payload.ReadFrom(resp.Body) //nolint:errcheck
		lines := strings.SplitAfter(payload.String(), "\n\n")
		if len(lines) > 1 && !strings.Contains(lines[0], `"state"`) {
			fmt.Fprint(w, lines[0]) // one event, then the connection dies
			w.(http.Flusher).Flush()
			panic(http.ErrAbortHandler)
		}
		fmt.Fprint(w, payload.String()) // only the terminal line remains
	}))
	t.Cleanup(front.Close)

	// Let the backend finish so every event is replayable.
	if _, _, err := (&Client{BaseURL: backend.BaseURL}).Results(context.Background(), status.ID, true); err != nil {
		t.Fatal(err)
	}

	client := &Client{BaseURL: front.URL}
	var got []int
	state, err := client.Stream(context.Background(), status.ID, 0, func(ev ProgressEvent) {
		got = append(got, ev.Done)
	})
	if err != nil {
		t.Fatalf("stream across %d drops: %v", conns, err)
	}
	if state != StateDone {
		t.Errorf("terminal state = %q, want done", state)
	}
	want := spec.NumPoints()
	if len(got) != want {
		t.Fatalf("delivered %d events across %d connections, want exactly %d (no loss, no duplicates)", len(got), conns, want)
	}
	for i, done := range got {
		if done != i+1 {
			t.Errorf("event %d has done=%d, want %d (exactly-once, in order)", i, done, i+1)
		}
	}
	if conns < want {
		t.Errorf("only %d connections for %d events; the front should have dropped each one", conns, want)
	}
}

// TestRunResubmitsAfterDaemonRestart: a daemon restart mid-study drops the
// SSE stream and forgets the study table (404 on reconnect). Run must
// resubmit — the id is the spec's content hash, so the study resumes — and
// deliver every remaining event with no duplicates.
func TestRunResubmitsAfterDaemonRestart(t *testing.T) {
	spec := testSpec("run-resubmit")
	norm := spec.WithDefaults()
	total := norm.NumPoints()
	id := StudyID(norm)

	// A scripted daemon: submission 1 starts "running"; its event stream
	// delivers two events and dies without a terminal line. The reconnect
	// finds a "restarted" daemon: 404 until resubmission, which then serves
	// the rest from the requested index.
	var submits int
	event := func(i int) string {
		ev, _ := json.Marshal(ProgressEvent{Done: i + 1, Total: total, Point: experiment.PointResult{PointKey: norm.Points()[i]}})
		return "data: " + string(ev) + "\n\n"
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/studies", func(w http.ResponseWriter, r *http.Request) {
		submits++
		writeJSON(w, http.StatusAccepted, StudyStatus{ID: id, State: StateRunning, Total: total, Created: true})
	})
	mux.HandleFunc("GET /api/v1/studies/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		if submits > 1 && r.PathValue("id") != id {
			writeError(w, http.StatusNotFound, fmt.Errorf("unknown study"))
			return
		}
		w.Header().Set("Content-Type", "text/event-stream")
		from := 0
		fmt.Sscanf(r.URL.Query().Get("from"), "%d", &from) //nolint:errcheck
		if submits == 1 {
			if from != 0 {
				// First daemon life: reconnects find the study gone.
				writeError(w, http.StatusNotFound, fmt.Errorf("unknown study %q", id))
				return
			}
			fmt.Fprint(w, event(0), event(1))
			w.(http.Flusher).Flush()
			panic(http.ErrAbortHandler) // daemon dies mid-stream
		}
		for i := from; i < total; i++ {
			fmt.Fprint(w, event(i))
		}
		fmt.Fprintf(w, "data: {\"state\":%q}\n\n", StateDone)
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)

	client := &Client{BaseURL: ts.URL}
	var got []int
	results, err := client.Run(context.Background(), spec, func(ev ProgressEvent) { got = append(got, ev.Done) })
	if err != nil {
		t.Fatal(err)
	}
	if submits != 2 {
		t.Errorf("submits = %d, want 2 (initial + restart resubmission)", submits)
	}
	if len(results) != total {
		t.Errorf("results = %d points, want %d", len(results), total)
	}
	if len(got) != total {
		t.Fatalf("progress delivered %d events, want exactly %d across the restart", len(got), total)
	}
	for i, done := range got {
		if done != i+1 {
			t.Errorf("event %d has done=%d, want %d", i, done, i+1)
		}
	}
}

// postLease sends one lease to a daemon and reads its whole NDJSON
// response: the replica lines and whether the trailer arrived.
func postLease(t *testing.T, baseURL string, req cluster.JobRequest) ([]cluster.JobResponse, bool) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(baseURL+"/api/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("lease %s [%d,+%d): status %d", req.Point, req.Rep, req.Reps, resp.StatusCode)
	}
	var lines []cluster.JobResponse
	dec := json.NewDecoder(resp.Body)
	for {
		var ln struct {
			cluster.JobResponse
			cluster.JobTrailer
		}
		if err := dec.Decode(&ln); err != nil {
			return lines, false
		}
		if ln.End {
			return lines, true
		}
		lines = append(lines, ln.JobResponse)
	}
}

// TestJobPrefixProbing: a lease asks each sibling for its replicas in
// order and stops asking a sibling after its first miss. A sibling holding
// a prefix of the lease fills all of it for one extra request; one holding
// only a later replica costs one request, and that replica is recomputed.
// Either way every replica line matches a direct simulation.
func TestJobPrefixProbing(t *testing.T) {
	spec := testSpec("job-prefix")
	spec.Replicas = 3
	norm := spec.WithDefaults()
	key := norm.Points()[0]
	for _, tc := range []struct {
		name                   string
		held                   []int
		gets, fills, simulated int64
		sources                []string
	}{
		{"prefix", []int{0, 1}, 3, 2, 1, []string{cluster.SourcePeer, cluster.SourcePeer, cluster.SourceComputed}},
		{"later-only", []int{2}, 1, 0, 3, []string{cluster.SourceComputed, cluster.SourceComputed, cluster.SourceComputed}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sibling, siblingClient := newTestServer(t)
			for _, rep := range tc.held {
				if _, resp := postJob(t, siblingClient.BaseURL, jobFor(spec, 0, rep)); resp.StatusCode != http.StatusOK {
					t.Fatalf("seeding replica %d: status %d", rep, resp.StatusCode)
				}
			}
			var gets atomic.Int64
			counted := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/api/v1/cas/") {
					gets.Add(1)
				}
				sibling.Handler().ServeHTTP(w, r)
			}))
			t.Cleanup(counted.Close)

			fresh, freshClient := newTestServer(t)
			req := jobFor(spec, 0, 0, counted.URL)
			req.Reps = 3
			lines, complete := postLease(t, freshClient.BaseURL, req)
			if !complete || len(lines) != 3 {
				t.Fatalf("lease returned %d lines, trailer %v; want 3 and a trailer", len(lines), complete)
			}
			for i, ln := range lines {
				want, err := experiment.RunReplicaJob(context.Background(), norm, key, i, 0, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				if ln.Rep != i || ln.Source != tc.sources[i] || !reflect.DeepEqual(ln.Point, want) {
					t.Errorf("line %d = replica %d from %q, want replica %d from %q with the simulated point", i, ln.Rep, ln.Source, i, tc.sources[i])
				}
			}
			if got := gets.Load(); got != tc.gets {
				t.Errorf("sibling got %d CAS requests, want %d", got, tc.gets)
			}
			if got := fresh.Counters().PeerCacheFills.Load(); got != tc.fills {
				t.Errorf("PeerCacheFills = %d, want %d", got, tc.fills)
			}
			if got := fresh.Counters().ReplicasComputed.Load(); got != tc.simulated {
				t.Errorf("ReplicasComputed = %d, want %d", got, tc.simulated)
			}
			if got := fresh.jobsServed.Load(); got != 3 {
				t.Errorf("jobsServed = %d, want 3: the counter counts replicas", got)
			}
		})
	}
}

// TestJobEndpointRejectsRangePastReplicas: a lease reaching past the spec's
// replicas, or with a negative count, is 400 before any line is written.
func TestJobEndpointRejectsRangePastReplicas(t *testing.T) {
	_, client := newTestServer(t)
	for _, r := range [][2]int{{1, 2}, {0, -1}} {
		job := jobFor(testSpec("job-bad-range"), 0, r[0])
		job.Reps = r[1]
		if _, resp := postJob(t, client.BaseURL, job); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("rep %d reps %d: status %d, want 400", r[0], r[1], resp.StatusCode)
		}
	}
}

// TestExpiredChaosDelayJournalsSpans: a straggler whose lease expires
// during its chaos delay answers 503 and still ends the job span and
// journals it, so the expired job shows up in the worker's trace.
func TestExpiredChaosDelayJournalsSpans(t *testing.T) {
	srv, err := New(Options{CacheDir: t.TempDir(), Fault: faultinject.NewPlan().DelayJobs(time.Second)})
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
	job := jobFor(testSpec("job-expired-delay"), 0, 0)
	job.LeaseMS = 20
	body, _ := json.Marshal(job)
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/api/v1/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	const traceID = "expired-delay-trace"
	trace.Inject(req.Header, trace.SpanContext{Trace: traceID, Parent: "coord-lease"})
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 for a lease expired in the chaos delay", resp.StatusCode)
	}
	names := map[string]int{}
	for _, sp := range srv.journal.Study(traceID) {
		names[sp.Name]++
	}
	if names["job"] != 1 || names["queue-wait"] != 1 {
		t.Errorf("journaled spans %v, want one job and one queue-wait span", names)
	}
}
