// White-box scheduler tests: pick fairness and load awareness, the load
// count's one owner, the backoff's scale, the speculative backup gate and
// what a backup carries, registration checks, probe suppression, and churn
// under -race. The end-to-end behavior (speculation, byte identity)
// lives in the black-box chaos suite in cluster_test.go.
package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sprinklers/internal/experiment"
	"sprinklers/internal/stats"
)

// TestPickRoundRobinFairnessEqualLoad: with nothing outstanding (all loads
// equal, each lease released before the next pick) the least-loaded
// chooser must degrade to exact round-robin — every healthy worker chosen
// exactly once per cycle.
func TestPickRoundRobinFairnessEqualLoad(t *testing.T) {
	urls := []string{"http://a", "http://b", "http://c"}
	c := New(Options{Workers: urls})
	const cycles = 10
	counts := map[string]int{}
	for i := 0; i < cycles*len(urls); i++ {
		if w := c.pick(nil); w != nil {
			counts[w.url]++
			w.addOutstanding(-1)
		}
	}
	for _, u := range urls {
		if counts[u] != cycles {
			t.Errorf("worker %s picked %d times in %d calls, want exactly %d (round-robin ties)",
				u, counts[u], cycles*len(urls), cycles)
		}
	}
}

// TestPickPrefersOutstanding: the coordinator's own outstanding leases are
// the load signal, and each pick raises it. From loads 3, 1 and 0 the next
// four leases go to b and c — c being the least loaded even though it is
// not among the first two workers in cursor order — until all three hold
// 3; the three after that go one to each.
func TestPickPrefersOutstanding(t *testing.T) {
	c := New(Options{Workers: []string{"http://a", "http://b", "http://c"}})
	wa, wb, wc := c.register("http://a"), c.register("http://b"), c.register("http://c")
	wa.addOutstanding(3)
	wb.addOutstanding(1)
	picks := func(n int) map[*worker]int {
		counts := map[*worker]int{}
		for i := 0; i < n; i++ {
			counts[c.pick(nil)]++
		}
		return counts
	}
	if counts := picks(5); counts[wa] != 0 || counts[wb] != 2 || counts[wc] != 3 {
		t.Errorf("picks from loads 3, 1, 0: a %d, b %d, c %d; want 0, 2, 3", counts[wa], counts[wb], counts[wc])
	}
	if counts := picks(3); counts[wa] != 1 || counts[wb] != 1 || counts[wc] != 1 {
		t.Errorf("picks from equal loads: a %d, b %d, c %d; want one each", counts[wa], counts[wb], counts[wc])
	}
	for _, w := range []*worker{wa, wb, wc} {
		if l := w.load(); l != 4 {
			t.Errorf("%s load %d after eight picks, want 4", w.url, l)
		}
	}
}

// TestPickCountsTheLeaseItPlaces: pick counts a lease on the worker it
// chooses while it holds the coordinator's lock, so leases placed at the
// same moment see each other, and a lease picked but never sent is
// released again.
func TestPickCountsTheLeaseItPlaces(t *testing.T) {
	t.Run("concurrent-picks", func(t *testing.T) {
		c := New(Options{Workers: []string{"http://a", "http://b"}})
		var wg sync.WaitGroup
		for i := 0; i < 16; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c.pick(nil)
			}()
		}
		wg.Wait()
		for _, w := range c.snapshotWorkers() {
			if l := w.load(); l != 8 {
				t.Errorf("%s load %d after 16 concurrent picks on two idle workers, want 8", w.url, l)
			}
		}
	})
	t.Run("backoff-canceled", func(t *testing.T) {
		mux := http.NewServeMux()
		mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) { fmt.Fprintln(w, "ok") })
		mux.HandleFunc("POST /api/v1/jobs", func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "busy", http.StatusServiceUnavailable)
		})
		ts := httptest.NewServer(mux)
		defer ts.Close()
		// The sole worker stays healthy after one failure, so the retry
		// picks it again and backs off: 3 min at a 1 h heartbeat.
		c := New(Options{Workers: []string{ts.URL}, HeartbeatInterval: time.Hour})
		ctr := &experiment.Counters{}
		c.UseCounters(ctr)
		spec := onePointSpec(1)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		done := make(chan error, 1)
		go func() {
			_, err := c.RunReplicas(ctx, spec, spec.Points()[0], 0, 1)
			done <- err
		}()
		// The retry is counted after its pick and before its backoff.
		deadline := time.Now().Add(10 * time.Second)
		for ctr.JobsRetried.Load() == 0 {
			if time.Now().After(deadline) {
				t.Fatal("the failed lease was never retried")
			}
			time.Sleep(time.Millisecond)
		}
		cancel()
		if err := <-done; !errors.Is(err, context.Canceled) {
			t.Fatalf("RunReplicas canceled in its backoff = %v, want context.Canceled", err)
		}
		for _, w := range c.snapshotWorkers() {
			if l := w.load(); l != 0 {
				t.Errorf("%s load %d after the study gave up, want 0", w.url, l)
			}
		}
	})
}

// TestBackoffScalesWithHeartbeat: the retry backoff is derived from the
// heartbeat interval, and at the 1 s default it is 50 ms, doubling per
// attempt, capped at 2 s.
func TestBackoffScalesWithHeartbeat(t *testing.T) {
	hb := New(Options{}).opts.HeartbeatInterval
	if hb != time.Second {
		t.Fatalf("default heartbeat %v, want 1s", hb)
	}
	for attempt, want := range map[int]time.Duration{
		1: 50 * time.Millisecond, 2: 100 * time.Millisecond, 5: 800 * time.Millisecond,
		6: 1600 * time.Millisecond, 7: 2 * time.Second, 60: 2 * time.Second,
	} {
		if got := backoffDelay(hb/20, attempt); got != want {
			t.Errorf("backoff before attempt %d at a %v heartbeat = %v, want %v", attempt, hb, got, want)
		}
	}
	if got := backoffDelay(25*time.Millisecond/20, 1); got != 1250*time.Microsecond {
		t.Errorf("backoff at a 25ms heartbeat = %v, want 1.25ms", got)
	}
}

// TestPickAvoidReturnsOtherWorker: pick(avoid) must move off the avoided
// worker when any other healthy worker exists, and fall back to it only
// when it is the sole healthy choice.
func TestPickAvoidReturnsOtherWorker(t *testing.T) {
	c := New(Options{Workers: []string{"http://a", "http://b"}})
	wa := c.register("http://a")
	wb := c.register("http://b")
	for i := 0; i < 10; i++ {
		if w := c.pick(wa); w != wb {
			t.Fatalf("pick(avoid=a) = %v, want b", w)
		}
	}
	wb.fail(1)
	if w := c.pick(wa); w != wa {
		t.Errorf("pick(avoid=a) with b suspect = %v, want the avoided sole survivor a", w)
	}
}

// TestBackupOnlyOntoIdleWorker: a speculative backup launches only onto a
// different healthy worker with nothing outstanding — never at equal load,
// never behind a lighter peer's own work, never on a single-worker fleet —
// and looking for one leaves pick's round-robin cursor where it was.
func TestBackupOnlyOntoIdleWorker(t *testing.T) {
	c := New(Options{Workers: []string{"http://a", "http://b"}})
	wa := c.register("http://a")
	wb := c.register("http://b")
	wa.addOutstanding(1) // the primary dispatch itself
	wb.addOutstanding(1)
	rr := c.rr
	for i := 0; i < 4; i++ {
		if bw := c.backupFor(wa); bw != nil {
			t.Fatalf("backupFor(a) at equal load = %s, want none", bw.url)
		}
	}
	// b is strictly lighter but still busy: a backup would queue behind it.
	wa.addOutstanding(2)
	if bw := c.backupFor(wa); bw != nil {
		t.Errorf("backupFor(a) with b lighter but busy = %s, want none", bw.url)
	}
	wb.addOutstanding(-1)
	if bw := c.backupFor(wa); bw != wb {
		t.Errorf("backupFor(a) with b idle = %v, want b", bw)
	}
	if l := wb.load(); l != 1 {
		t.Errorf("b's load after a backup was placed there = %d, want 1", l)
	}
	wb.addOutstanding(-1)
	if bw := c.backupFor(wb); bw != nil {
		t.Errorf("backupFor(b) onto the busy a = %s, want none", bw.url)
	}
	if c.rr != rr {
		t.Errorf("backupFor moved the round-robin cursor from %d to %d", rr, c.rr)
	}
	// An idle peer that is suspect is no candidate.
	wb.fail(1)
	if bw := c.backupFor(wa); bw != nil {
		t.Errorf("backupFor(a) with b suspect = %s, want none", bw.url)
	}

	solo := New(Options{Workers: []string{"http://s"}})
	ws := solo.register("http://s")
	ws.addOutstanding(6)
	if bw := solo.backupFor(ws); bw != nil {
		t.Errorf("backupFor on a single-worker fleet = %s, want none", bw.url)
	}
}

// TestRegisterRejectsUndialableURL: a worker URL the coordinator could not
// build a request for — no scheme, a non-http scheme, no host — is refused
// by Register and skipped by New, so it never reaches a dispatch, where it
// would fail the study with a permanent error.
func TestRegisterRejectsUndialableURL(t *testing.T) {
	bad := []string{"", "127.0.0.1:9001", "localhost:9001", "ftp://host:21", "http://", "http:///jobs", "/api"}
	c := New(Options{Workers: bad})
	for _, u := range bad {
		if err := c.Register(u); err == nil {
			t.Errorf("Register(%q) = nil, want an error", u)
		}
	}
	if n := c.Snapshot().WorkersTotal; n != 0 {
		t.Fatalf("%d workers registered from undialable urls, want 0", n)
	}
	for _, u := range []string{"http://127.0.0.1:9001", "https://w1.example/", "http://:9001"} {
		if err := c.Register(u); err != nil {
			t.Errorf("Register(%q) = %v, want nil", u, err)
		}
	}
	if n := c.Snapshot().WorkersTotal; n != 3 {
		t.Errorf("%d workers registered, want 3", n)
	}
}

// TestPickChurn hammers pick concurrently with registration, outstanding
// lease accounting and failure marking — a -race exercise that also asserts pick never
// returns an unhealthy worker while healthy ones exist.
func TestPickChurn(t *testing.T) {
	c := New(Options{Workers: []string{"http://w0", "http://w1", "http://w2"}})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(3)
	go func() { // registrations and revivals
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			c.Register(fmt.Sprintf("http://w%d", i%5))
		}
	}()
	go func() { // dispatches starting and finishing
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, w := range c.snapshotWorkers() {
				w.addOutstanding(1)
				w.addOutstanding(-1)
			}
		}
	}()
	go func() { // failures
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			for _, w := range c.snapshotWorkers() {
				if i%3 == 0 {
					w.fail(suspectAfter)
				}
			}
		}
	}()
	deadline := time.Now().Add(200 * time.Millisecond)
	picks := 0
	for time.Now().Before(deadline) {
		if w := c.pick(nil); w != nil {
			picks++
			w.addOutstanding(-1)
		}
	}
	close(stop)
	wg.Wait()
	if picks == 0 {
		t.Error("pick never returned a worker under churn")
	}
}

// TestProbeSuppressedAfterPushHeartbeat: the probe loop must not
// re-probe a worker heard from within the heartbeat interval (a joined
// worker's periodic registration already proves liveness), and must resume
// probing once the worker goes quiet.
func TestProbeSuppressedAfterPushHeartbeat(t *testing.T) {
	var probes atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			probes.Add(1)
		}
		fmt.Fprintln(w, "ok")
	}))
	defer ts.Close()

	c := New(Options{Workers: []string{ts.URL}, HeartbeatInterval: 50 * time.Millisecond})
	ctx := context.Background()

	// Registration just recorded contact: an immediate probe round is
	// suppressed.
	c.probeAll(ctx)
	if got := probes.Load(); got != 0 {
		t.Fatalf("probes after fresh contact = %d, want 0", got)
	}

	// Quiet past the interval: probing resumes.
	time.Sleep(60 * time.Millisecond)
	c.probeAll(ctx)
	if got := probes.Load(); got != 1 {
		t.Fatalf("probes after going quiet = %d, want 1", got)
	}

	// A re-registration re-suppresses the next round.
	if err := c.Register(ts.URL); err != nil {
		t.Fatal(err)
	}
	c.probeAll(ctx)
	if got := probes.Load(); got != 1 {
		t.Errorf("probes after re-registration = %d, want still 1", got)
	}
}

// TestSpeculateThresholdArming: the percentile threshold must stay
// disarmed until enough latencies are observed, then answer with at least
// the floor — with speculation off too, since slow-job warnings use it.
func TestSpeculateThresholdArming(t *testing.T) {
	c := New(Options{Workers: []string{"http://a"}, Speculate: true})
	if th := c.speculateThreshold(); th != 0 {
		t.Fatalf("threshold with no samples = %v, want 0", th)
	}
	for i := 0; i < speculateMinSamples-1; i++ {
		c.replicaGaps.Observe(time.Millisecond)
	}
	if th := c.speculateThreshold(); th != 0 {
		t.Fatalf("threshold under-sampled = %v, want 0", th)
	}
	c.replicaGaps.Observe(time.Millisecond)
	if th := c.speculateThreshold(); th < speculateFloor {
		t.Errorf("armed threshold = %v, want >= floor %v", th, speculateFloor)
	}

	off := New(Options{Workers: []string{"http://a"}})
	for i := 0; i < speculateMinSamples; i++ {
		off.replicaGaps.Observe(time.Millisecond)
	}
	if th := off.speculateThreshold(); th < speculateFloor {
		t.Errorf("threshold with speculation disabled = %v, want >= floor %v: slow-job warnings need it", th, speculateFloor)
	}
}

// onePointSpec is a normalized one-point study of reps short replicas.
func onePointSpec(reps int) experiment.Spec {
	return experiment.Spec{
		Algorithms: experiment.Algs(experiment.Sprinklers),
		Traffic:    experiment.Traffics(experiment.UniformTraffic),
		Loads:      []float64{0.5}, Sizes: []int{8}, Replicas: reps, Slots: 200,
	}.WithDefaults()
}

// leaseWorker is a fake worker that serves each lease by simulating its
// replicas in order and streaming them back; with stallAfter > 0 it stops
// after that many replicas and holds the response open until the
// coordinator hangs up. Every lease it gets is recorded as [rep, reps].
func leaseWorker(t *testing.T, stallAfter int, got *[][2]int, mu *sync.Mutex) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) { fmt.Fprintln(w, "ok") })
	mux.HandleFunc("POST /api/v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		var req JobRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		mu.Lock()
		*got = append(*got, [2]int{req.Rep, req.Reps})
		mu.Unlock()
		enc := json.NewEncoder(w)
		for i := 0; i < req.Reps; i++ {
			if stallAfter > 0 && i == stallAfter {
				http.NewResponseController(w).Flush() //nolint:errcheck
				<-r.Context().Done()
				return
			}
			p, err := experiment.RunReplicaJob(r.Context(), req.Spec, req.Point, req.Rep+i, 0, nil, nil)
			if err != nil {
				return
			}
			enc.Encode(JobResponse{Rep: req.Rep + i, Point: p, Source: SourceComputed}) //nolint:errcheck
		}
		enc.Encode(JobTrailer{End: true}) //nolint:errcheck
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// TestSpeculativeBackupCarriesTheRest: a primary that delivers one of a
// lease's three replicas and then stalls is raced by a backup for the two
// it did not deliver; the lease completes with the primary's replica and
// the backup's two, each equal to a direct simulation, and the counters
// count the backup's replicas.
func TestSpeculativeBackupCarriesTheRest(t *testing.T) {
	var mu sync.Mutex
	var stalled, backup [][2]int
	stall := leaseWorker(t, 1, &stalled, &mu)
	good := leaseWorker(t, 0, &backup, &mu)
	c := New(Options{Workers: []string{stall.URL, good.URL}, Speculate: true, HeartbeatInterval: 10 * time.Millisecond})
	ctr := &experiment.Counters{}
	c.UseCounters(ctr)
	for i := 0; i < speculateMinSamples; i++ {
		c.replicaGaps.Observe(time.Millisecond) // arm the threshold at its floor
	}
	spec := onePointSpec(3)
	key := spec.Points()[0]

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pts, err := c.RunReplicas(ctx, spec, key, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	for rep, p := range pts {
		want, err := experiment.RunReplicaJob(ctx, spec, key, rep, 0, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(p, want) {
			t.Errorf("replica %d differs from a direct simulation", rep)
		}
	}
	mu.Lock()
	if !reflect.DeepEqual(stalled, [][2]int{{0, 3}}) || !reflect.DeepEqual(backup, [][2]int{{1, 2}}) {
		t.Errorf("leases: primary %v, backup %v; want [[0 3]] and [[1 2]]", stalled, backup)
	}
	mu.Unlock()
	if l, d := ctr.SpeculativeLaunched.Load(), ctr.JobsDispatched.Load(); l != 2 || d != 5 {
		t.Errorf("SpeculativeLaunched = %d, JobsDispatched = %d; want 2 and 5", l, d)
	}
	cancel() // the stalled primary is the loser; hang up on it
	deadline := time.Now().Add(5 * time.Second)
	for c.Snapshot().SpeculativePending != 0 {
		if time.Now().After(deadline) {
			t.Fatal("the stalled loser was never reaped")
		}
		time.Sleep(time.Millisecond)
	}
	if w := ctr.SpeculativeWasted.Load(); w != 0 {
		t.Errorf("SpeculativeWasted = %d, want 0: the loser delivered nothing twice", w)
	}
}

// TestGapsCountReplicasLeasesCountOnce: one k-replica lease adds k samples
// to the per-replica gap histogram that arms speculation and one to the
// dispatch-latency histogram, so speculation never reads whole-lease
// durations.
func TestGapsCountReplicasLeasesCountOnce(t *testing.T) {
	const k = 3
	var mu sync.Mutex
	var leases [][2]int
	w := leaseWorker(t, 0, &leases, &mu)
	c := New(Options{Workers: []string{w.URL}})
	dispatch := stats.NewHistogram("sprinklerd_dispatch_latency_seconds", "one sample per lease")
	c.UseDispatchHist(dispatch)
	spec := onePointSpec(k)
	if _, err := c.RunReplicas(context.Background(), spec, spec.Points()[0], 0, k); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	if !reflect.DeepEqual(leases, [][2]int{{0, k}}) {
		t.Errorf("leases %v, want one [0 %d]", leases, k)
	}
	mu.Unlock()
	_, gaps := c.replicaGaps.Quantile(0)
	if _, lease := dispatch.Quantile(0); gaps != k || lease != 1 {
		t.Errorf("gap samples %d, dispatch-latency samples %d; want %d and 1", gaps, lease, k)
	}
}
