// The chaos suite: every test runs a real coordinator daemon against real
// worker daemons (httptest servers over the actual HTTP surface), injects
// a fault — a worker killed mid-replica, transport errors on dispatch, a
// fleet entirely down, a coordinator restart mid-study — and asserts the
// two invariants the cluster exists to hold:
//
//  1. The study completes with results byte-identical to a fault-free
//     single-node run.
//  2. No replica is ever simulated twice: the sum of ReplicasComputed
//     across every node equals points x replicas exactly.
package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"sprinklers/internal/cluster"
	"sprinklers/internal/experiment"
	"sprinklers/internal/faultinject"
	"sprinklers/internal/service"
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

// totalReplicas is the replica count of a spec: points x replicas.
func totalReplicas(spec experiment.Spec) int64 {
	return int64(spec.WithDefaults().NumPoints() * spec.WithDefaults().Replicas)
}

// leasesFor is the lease count of a fault-free cluster run of spec at
// study parallelism par: one per point, or each point cut into
// min(replicas, ⌈par/points⌉) ranges when there are fewer points than par.
func leasesFor(spec experiment.Spec, par int) int {
	norm := spec.WithDefaults()
	points := norm.NumPoints()
	if points >= par {
		return points
	}
	return points * min(norm.Replicas, (par+points-1)/points)
}

// node is one daemon: the server core plus its HTTP front.
type node struct {
	srv *service.Server
	ts  *httptest.Server
}

func (n *node) url() string { return n.ts.URL }

func newNode(t *testing.T, opts service.Options) *node {
	t.Helper()
	if opts.CacheDir == "" {
		opts.CacheDir = t.TempDir()
	}
	srv, err := service.New(opts)
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
	return &node{srv: srv, ts: ts}
}

// fastOptions are cluster timings scaled for tests: tight heartbeats and
// backoffs so suspicion and failover land in milliseconds.
func fastOptions(workers ...string) cluster.Options {
	return cluster.Options{
		Workers:           workers,
		Lease:             30 * time.Second,
		HeartbeatInterval: 25 * time.Millisecond,
		SuspectAfter:      2,
		BaseBackoff:       2 * time.Millisecond,
		MaxBackoff:        20 * time.Millisecond,
		Seed:              7,
	}
}

// newCoordinator assembles a coordinator daemon over the given cluster
// options and starts its health loop.
func newCoordinator(t *testing.T, copts cluster.Options, sopts service.Options) (*node, *cluster.Coordinator) {
	t.Helper()
	coord := cluster.New(copts)
	sopts.Cluster = coord
	n := newNode(t, sopts)
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	coord.Start(ctx)
	return n, coord
}

// localReference runs spec in-process — the byte-identity oracle.
func localReference(t *testing.T, spec experiment.Spec) []byte {
	t.Helper()
	results, err := experiment.RunStudy(context.Background(), spec, experiment.StudyConfig{})
	if err != nil {
		t.Fatal(err)
	}
	b, _ := json.Marshal(results)
	return b
}

// runRemote runs spec through the coordinator and returns the marshaled
// results.
func runRemote(t *testing.T, coordinator *node, spec experiment.Spec) []byte {
	t.Helper()
	client := &service.Client{BaseURL: coordinator.url()}
	results, err := client.Run(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := json.Marshal(results)
	return b
}

// replicasComputedAcross sums ReplicasComputed over the given nodes.
func replicasComputedAcross(nodes ...*node) int64 {
	var sum int64
	for _, n := range nodes {
		sum += n.srv.Counters().ReplicasComputed.Load()
	}
	return sum
}

// TestClusterMatchesLocalByteIdentical: a fault-free cluster run returns
// exactly the bytes of a local run, all replicas run on workers (none on
// the coordinator), and no replica runs twice.
func TestClusterMatchesLocalByteIdentical(t *testing.T) {
	w1 := newNode(t, service.Options{})
	w2 := newNode(t, service.Options{})
	coordinator, coord := newCoordinator(t, fastOptions(w1.url(), w2.url()), service.Options{})
	spec := testSpec("cluster-identity")

	remote := runRemote(t, coordinator, spec)
	if local := localReference(t, spec); !bytes.Equal(remote, local) {
		t.Errorf("cluster results differ from local:\n%s\nvs\n%s", remote, local)
	}

	want := totalReplicas(spec)
	if got := replicasComputedAcross(w1, w2); got != want {
		t.Errorf("workers computed %d replicas, want %d", got, want)
	}
	if got := coordinator.srv.Counters().ReplicasComputed.Load(); got != 0 {
		t.Errorf("coordinator computed %d replicas locally, want 0", got)
	}
	if got := coordinator.srv.Counters().JobsDispatched.Load(); got < want {
		t.Errorf("JobsDispatched = %d, want >= %d", got, want)
	}
	if s := coord.Snapshot(); s.WorkersHealthy != 2 || s.WorkersTotal != 2 {
		t.Errorf("worker counts = %+v, want 2/2", s)
	}
}

// TestWorkerCrashMidReplicaFailsOver: one worker is killed at an exact
// simulation slot mid-replica (and stays dead — every later connection to
// it is severed, heartbeats included). The study must still complete
// byte-identical, the lost job must move to the surviving worker, and the
// crashed (incomplete) replica must be the ONLY one recomputed: the total
// computed across all nodes stays exactly points x replicas.
func TestWorkerCrashMidReplicaFailsOver(t *testing.T) {
	plan := faultinject.NewPlan(1).CrashWorkerAt(2, 150)
	w1 := newNode(t, service.Options{Fault: plan})
	w2 := newNode(t, service.Options{})
	coordinator, coord := newCoordinator(t, fastOptions(w1.url(), w2.url()), service.Options{})
	spec := testSpec("cluster-crash")

	remote := runRemote(t, coordinator, spec)
	if local := localReference(t, spec); !bytes.Equal(remote, local) {
		t.Errorf("results after worker crash differ from local:\n%s\nvs\n%s", remote, local)
	}
	if !plan.Dead() {
		t.Fatal("the scheduled crash never fired")
	}
	c := coordinator.srv.Counters()
	if got := c.JobsRetried.Load(); got == 0 {
		t.Error("JobsRetried = 0, want > 0 after a worker death")
	}
	if got := c.JobsRedispatched.Load(); got == 0 {
		t.Error("JobsRedispatched = 0, want > 0: the crashed job must move to the surviving worker")
	}
	want := totalReplicas(spec)
	if got := replicasComputedAcross(coordinator, w1, w2); got != want {
		t.Errorf("computed %d replicas across the cluster, want exactly %d (no duplicate simulation)", got, want)
	}
	// SuspectAfter is 2: the failed dispatch counted once, and the second
	// failure comes from the health loop's next probe tick, which may land
	// after the study has already finished on the surviving worker.
	deadline := time.Now().Add(10 * time.Second)
	for coord.Snapshot().WorkersHealthy != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("healthy workers = %d, want 1 after the crash", coord.Snapshot().WorkersHealthy)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestInjectedTransportErrorsAreRetried: every other dispatch dies with an
// injected connection error. Retries (with backoff) must absorb all of it:
// same bytes, no duplicate simulation.
func TestInjectedTransportErrorsAreRetried(t *testing.T) {
	plan := faultinject.NewPlan(3).FailEveryNth(2)
	copts := fastOptions() // workers added below; transport wraps dispatches only
	copts.Transport = &faultinject.Transport{
		Plan:  plan,
		Match: func(r *http.Request) bool { return strings.HasSuffix(r.URL.Path, "/api/v1/jobs") },
	}
	w1 := newNode(t, service.Options{})
	w2 := newNode(t, service.Options{})
	copts.Workers = []string{w1.url(), w2.url()}
	coordinator, _ := newCoordinator(t, copts, service.Options{})
	spec := testSpec("cluster-flaky-transport")

	remote := runRemote(t, coordinator, spec)
	if local := localReference(t, spec); !bytes.Equal(remote, local) {
		t.Errorf("results under transport faults differ from local:\n%s\nvs\n%s", remote, local)
	}
	if plan.Injected() == 0 {
		t.Fatal("no faults were injected; the test exercised nothing")
	}
	c := coordinator.srv.Counters()
	if got := c.JobsRetried.Load(); got == 0 {
		t.Error("JobsRetried = 0, want > 0 under injected dispatch faults")
	}
	want := totalReplicas(spec)
	if got := replicasComputedAcross(coordinator, w1, w2); got != want {
		t.Errorf("computed %d replicas, want exactly %d", got, want)
	}
}

// TestAllWorkersDownDegradesToLocal: with the whole fleet unreachable the
// coordinator must finish the study in-process, report itself degraded on
// /healthz, and still produce identical bytes.
func TestAllWorkersDownDegradesToLocal(t *testing.T) {
	dead1 := httptest.NewServer(http.NotFoundHandler())
	dead2 := httptest.NewServer(http.NotFoundHandler())
	u1, u2 := dead1.URL, dead2.URL
	dead1.Close()
	dead2.Close()

	copts := fastOptions(u1, u2)
	copts.SuspectAfter = 1
	copts.MaxAttempts = 2
	coordinator, coord := newCoordinator(t, copts, service.Options{})
	spec := testSpec("cluster-degraded")

	remote := runRemote(t, coordinator, spec)
	if local := localReference(t, spec); !bytes.Equal(remote, local) {
		t.Errorf("degraded-mode results differ from local:\n%s\nvs\n%s", remote, local)
	}
	if !coord.Degraded() {
		t.Error("Degraded() = false with every worker down")
	}
	c := coordinator.srv.Counters()
	want := totalReplicas(spec)
	if got := c.LocalFallbacks.Load(); got != want {
		t.Errorf("LocalFallbacks = %d, want %d: every job must fall back locally", got, want)
	}
	if got := replicasComputedAcross(coordinator); got != want {
		t.Errorf("coordinator computed %d replicas, want %d", got, want)
	}

	resp, err := http.Get(coordinator.url() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if got := strings.TrimSpace(string(body)); got != "degraded" {
		t.Errorf("healthz = %q, want %q", got, "degraded")
	}
}

// TestCoordinatorRestartMidStudyResumesWithoutRecompute: the coordinator
// is stopped mid-study (canceling the run; its completed points are
// already in its cache) and a NEW coordinator daemon over the same cache
// directory takes over. The resubmitted study must complete
// byte-identical, and across the whole ordeal — first coordinator, second
// coordinator, both workers — each replica must have been simulated
// exactly once: completed points resume from the coordinator's cache,
// completed replicas of interrupted points resurface from worker caches
// via the replica-envelope read path.
func TestCoordinatorRestartMidStudyResumesWithoutRecompute(t *testing.T) {
	w1 := newNode(t, service.Options{})
	w2 := newNode(t, service.Options{})
	cacheDir := t.TempDir()
	spec := testSpec("cluster-coord-restart")
	spec.Slots = 4_000 // long enough to interrupt

	first, _ := newCoordinator(t, fastOptions(w1.url(), w2.url()), service.Options{CacheDir: cacheDir})
	client := &service.Client{BaseURL: first.url()}
	ctx := context.Background()
	status, err := client.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	// Wait for at least one recorded point, then tear the coordinator down.
	deadline := time.Now().Add(30 * time.Second)
	for {
		done := 0
		for _, st := range first.srv.List() {
			if st.ID == status.ID {
				done = st.Done
			}
		}
		if done >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("study made no progress before the deadline")
		}
		time.Sleep(10 * time.Millisecond)
	}
	shutCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	if err := first.srv.Shutdown(shutCtx); err != nil {
		t.Fatal(err)
	}
	cancel()
	first.ts.Close()

	second, _ := newCoordinator(t, fastOptions(w1.url(), w2.url()), service.Options{CacheDir: cacheDir})
	remote := runRemote(t, second, spec)
	if local := localReference(t, spec); !bytes.Equal(remote, local) {
		t.Errorf("post-restart results differ from local:\n%s\nvs\n%s", remote, local)
	}
	want := totalReplicas(spec)
	if got := replicasComputedAcross(first, second, w1, w2); got != want {
		t.Errorf("computed %d replicas across both coordinator lives, want exactly %d (no duplicate simulation)", got, want)
	}
}

// TestWorkersAreThePeerFillTier: a coordinator whose own store is empty —
// a replacement for one whose disk was lost — runs a study whose replicas
// worker w1 already holds. The coordinator reads only its own store, so
// every replica is dispatched: w1 serves its share from its own store and
// w2 fills its share from w1's. The study matches a local run byte for
// byte, nothing is simulated, and each peer fill is counted once across
// the fleet, on the worker that adopted the replica.
func TestWorkersAreThePeerFillTier(t *testing.T) {
	w1 := newNode(t, service.Options{})
	w2 := newNode(t, service.Options{})
	spec := testSpec("cluster-worker-fill")
	norm := spec.WithDefaults()
	for _, key := range norm.Points() {
		for rep := 0; rep < norm.Replicas; rep++ {
			postJob(t, w1, cluster.JobRequest{Spec: norm.Narrow(key), Point: key, Rep: rep})
		}
	}
	before := replicasComputedAcross(w1)

	coordinator, _ := newCoordinator(t, fastOptions(w1.url(), w2.url()), service.Options{})
	remote := runRemote(t, coordinator, spec)
	if local := localReference(t, spec); !bytes.Equal(remote, local) {
		t.Errorf("cluster results differ from local:\n%s\nvs\n%s", remote, local)
	}
	if got := replicasComputedAcross(coordinator, w1, w2) - before; got != 0 {
		t.Errorf("computed %d new replicas, want 0: every replica was in w1's store", got)
	}
	fills := func(n *node) int64 { return n.srv.TotalCounters().PeerCacheFills }
	own := fills(w2)
	if own == 0 {
		t.Fatal("w2 filled no replica from w1; the test needs jobs on both workers")
	}
	if fleet := fills(coordinator) + fills(w1) + fills(w2); fleet != own {
		t.Errorf("fleet PeerCacheFills = %d, want w2's own %d: a fill is counted once", fleet, own)
	}
}

// TestWorkerRejoinsAfterRegister: a worker marked suspect is revived by
// push registration (the -join flow), and new studies use it again.
func TestWorkerRejoinsAfterRegister(t *testing.T) {
	w1 := newNode(t, service.Options{})
	copts := fastOptions(w1.url())
	copts.HeartbeatInterval = time.Hour // no probe loop: only explicit registration revives
	coordinator, coord := newCoordinator(t, copts, service.Options{})

	// Knock the worker out by URL swap: suspect it via failed dispatches.
	w1.ts.Close()
	spec := testSpec("cluster-rejoin-1")
	runRemote(t, coordinator, spec) // completes via local fallback
	if s := coord.Snapshot(); s.WorkersHealthy != 0 {
		t.Fatalf("healthy = %d, want 0 after the worker died", s.WorkersHealthy)
	}

	// A fresh worker registers over HTTP (what JoinCluster posts).
	w2 := newNode(t, service.Options{})
	body := strings.NewReader(`{"url":"` + w2.url() + `"}`)
	resp, err := http.Post(coordinator.url()+"/api/v1/cluster/register", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if s := coord.Snapshot(); s.WorkersHealthy != 1 || s.WorkersTotal != 2 {
		t.Fatalf("after register: %+v, want 1 healthy of 2", s)
	}

	spec2 := testSpec("cluster-rejoin-2")
	spec2.Seed = 42 // physically distinct: the first study's cache must not cover it
	runRemote(t, coordinator, spec2)
	if got := w2.srv.Counters().ReplicasComputed.Load(); got != totalReplicas(spec2) {
		t.Errorf("rejoined worker computed %d replicas, want %d", got, totalReplicas(spec2))
	}
}

// TestFailoverToHealthyPeerIsImmediate: backoff must only gate retries
// against the same (suspect) path — when a healthy peer exists, a failed
// job moves there with no sleep at all. The regression this pins: with
// BaseBackoff cranked to 5s, a study whose first worker is dead must still
// finish in a fraction of one backoff period.
func TestFailoverToHealthyPeerIsImmediate(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()
	w2 := newNode(t, service.Options{})

	copts := fastOptions(deadURL, w2.url())
	copts.BaseBackoff = 5 * time.Second
	copts.MaxBackoff = 5 * time.Second
	copts.SuspectAfter = 1
	copts.HeartbeatInterval = time.Hour // no probe loop: dispatch failures drive health
	coordinator, _ := newCoordinator(t, copts, service.Options{})
	spec := testSpec("cluster-immediate-failover")

	start := time.Now()
	remote := runRemote(t, coordinator, spec)
	elapsed := time.Since(start)
	if local := localReference(t, spec); !bytes.Equal(remote, local) {
		t.Errorf("failover results differ from local:\n%s\nvs\n%s", remote, local)
	}
	// The jittered sleep for one 5s-backoff retry is at least 2.5s; an
	// immediate failover finishes the whole study well under that.
	if elapsed >= copts.BaseBackoff/2 {
		t.Errorf("study took %v with a dead first worker; failover to the healthy peer must not sleep the %v backoff", elapsed, copts.BaseBackoff)
	}
	c := coordinator.srv.Counters()
	if got := c.JobsRedispatched.Load(); got == 0 {
		t.Error("JobsRedispatched = 0, want > 0: the dead worker's job must move")
	}
}

// wideSpec is testSpec with twice the load points — 8 points x 2 replicas
// = 16 jobs, enough runway for speculation to engage.
func wideSpec(name string) experiment.Spec {
	s := testSpec(name)
	s.Loads = []float64{0.2, 0.4, 0.6, 0.8}
	return s
}

// TestStragglerSpeculativeTail: one worker is a straggler (single slot,
// 1s stall per job, like CI's straggler step). With speculation armed,
// slow jobs must be raced by backups on the healthy peer at any study
// parallelism — including 16, where the straggler holds about half the
// study from the first dispatch on, and a gate that waited for the study
// tail would leave its queue to drain at 1s a job: the study finishes near
// the healthy baseline, bytes identical, and every extra simulated replica
// is a counted speculative loser — never aggregated twice.
func TestStragglerSpeculativeTail(t *testing.T) {
	for _, par := range []int{4, 16} {
		t.Run(fmt.Sprintf("par-%d", par), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			t.Cleanup(cancel)

			specOpts := func(workers ...string) cluster.Options {
				copts := fastOptions(workers...)
				copts.Speculate = true
				return copts
			}
			join := func(n *node, coordinator *node) {
				go n.srv.JoinCluster(ctx, coordinator.url(), n.url(), 10*time.Millisecond)
			}
			sopts := service.Options{Parallelism: par}

			// Healthy baseline: same topology, no straggler.
			b1 := newNode(t, service.Options{})
			b2 := newNode(t, service.Options{})
			baseCoord, _ := newCoordinator(t, specOpts(b1.url(), b2.url()), sopts)
			join(b1, baseCoord)
			join(b2, baseCoord)
			baseStart := time.Now()
			runRemote(t, baseCoord, wideSpec("cluster-speculate-baseline"))
			healthyWall := time.Since(baseStart)

			// Straggler run.
			straggler := newNode(t, service.Options{JobSlots: 1, JobDelay: time.Second})
			healthy := newNode(t, service.Options{})
			coordinator, coord := newCoordinator(t, specOpts(straggler.url(), healthy.url()), sopts)
			join(straggler, coordinator)
			join(healthy, coordinator)

			spec := wideSpec("cluster-speculate")
			start := time.Now()
			remote := runRemote(t, coordinator, spec)
			wall := time.Since(start)
			if local := localReference(t, spec); !bytes.Equal(remote, local) {
				t.Errorf("results under speculation differ from local:\n%s\nvs\n%s", remote, local)
			}

			c := coordinator.srv.Counters()
			launched := c.SpeculativeLaunched.Load()
			if launched == 0 {
				t.Error("SpeculativeLaunched = 0, want > 0: jobs stuck behind the straggler must get backups")
			}
			// 1.5x the healthy wall, with generous absolute slack for a
			// loaded 1-CPU CI box: the point is that the straggler's
			// 1s-per-job stall does not serialize the study.
			if bound := healthyWall + healthyWall/2 + 2*time.Second; wall > bound {
				t.Errorf("straggler run took %v, want <= %v (healthy baseline %v)", wall, bound, healthyWall)
			}

			// Let in-flight losers finish before auditing the ledger.
			deadline := time.Now().Add(10 * time.Second)
			for coord.Snapshot().SpeculativePending != 0 {
				if time.Now().After(deadline) {
					t.Fatal("speculative losers never reaped")
				}
				time.Sleep(10 * time.Millisecond)
			}
			wasted := c.SpeculativeWasted.Load()
			extra := replicasComputedAcross(straggler, healthy) - totalReplicas(spec)
			// Every replica beyond points x replicas must be a speculative
			// loser: at least the counted wasted ones, never more than the
			// launched backups (a loser canceled at study teardown may
			// abort uncounted).
			if extra < wasted || extra > launched {
				t.Errorf("computed %d extra replicas with %d wasted / %d launched; losers must be CAS-deduped and counted",
					extra, wasted, launched)
			}
			t.Logf("par %d: straggler wall %v, healthy %v, launched %d, wasted %d",
				par, wall, healthyWall, launched, wasted)
		})
	}
}

// TestClusterAdaptiveMatchesLocal: an adaptive study dispatched across a
// cluster — dynamic refinement points, early-stopped replicas and all — is
// byte-identical to a local run, every simulated replica runs on a worker,
// and the fleet simulates exactly the replicas the local run does (the
// early-stopping decisions are part of the deterministic trajectory, so
// remote execution saves exactly as much work).
func TestClusterAdaptiveMatchesLocal(t *testing.T) {
	w1 := newNode(t, service.Options{})
	w2 := newNode(t, service.Options{})
	coordinator, _ := newCoordinator(t, fastOptions(w1.url(), w2.url()), service.Options{})
	spec, err := experiment.BuiltinSpec("adaptive-smoke")
	if err != nil {
		t.Fatal(err)
	}

	var lctr experiment.Counters
	local, err := experiment.RunStudy(context.Background(), spec, experiment.StudyConfig{Counters: &lctr})
	if err != nil {
		t.Fatal(err)
	}
	lb, _ := json.Marshal(local)

	remote := runRemote(t, coordinator, spec)
	if !bytes.Equal(remote, lb) {
		t.Errorf("cluster adaptive results differ from local:\n%s\nvs\n%s", remote, lb)
	}
	if got := coordinator.srv.Counters().ReplicasComputed.Load(); got != 0 {
		t.Errorf("coordinator computed %d replicas locally, want 0", got)
	}
	if got, want := replicasComputedAcross(w1, w2), lctr.ReplicasComputed.Load(); got != want {
		t.Errorf("workers computed %d replicas, want the local run's %d (early stopping must replicate)", got, want)
	}
	total := coordinator.srv.TotalCounters()
	if total.PointsRefined == 0 || total.ReplicasEarlyStopped == 0 {
		t.Errorf("adaptive counters did not surface on the coordinator: %+v", total)
	}
}

// jobCapture is a dispatch transport that records every job request the
// coordinator sends before passing it on.
type jobCapture struct {
	mu   sync.Mutex
	reqs []cluster.JobRequest
}

func (c *jobCapture) RoundTrip(r *http.Request) (*http.Response, error) {
	if strings.HasSuffix(r.URL.Path, "/api/v1/jobs") {
		b, err := io.ReadAll(r.Body)
		r.Body.Close()
		if err != nil {
			return nil, err
		}
		var jr cluster.JobRequest
		if err := json.Unmarshal(b, &jr); err != nil {
			return nil, fmt.Errorf("captured job request %s: %w", b, err)
		}
		c.mu.Lock()
		c.reqs = append(c.reqs, jr)
		c.mu.Unlock()
		r.Body = io.NopCloser(bytes.NewReader(b))
	}
	return http.DefaultTransport.RoundTrip(r)
}

// postJob sends one job request straight to a worker and decodes the reply.
func postJob(t *testing.T, worker *node, req cluster.JobRequest) cluster.JobResponse {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(worker.url()+"/api/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("job %s rep %d: %s: %s", req.Point, req.Rep, resp.Status, msg)
	}
	var jr cluster.JobResponse
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		t.Fatal(err)
	}
	return jr
}

// TestJobsCarryOnePointSpecs: every job on the wire carries its point's
// one-point spec (one algorithm, traffic kind, load and size), the study
// still matches a local run byte for byte, and a worker serves a request
// carrying the whole study spec, as a coordinator that does not narrow
// sends it, under the same replica key: the one-point request for the same
// replica is a cache hit.
func TestJobsCarryOnePointSpecs(t *testing.T) {
	w1 := newNode(t, service.Options{})
	w2 := newNode(t, service.Options{})
	capture := &jobCapture{}
	copts := fastOptions(w1.url(), w2.url())
	copts.Transport = capture
	coordinator, _ := newCoordinator(t, copts, service.Options{})
	spec := testSpec("cluster-one-point")

	remote := runRemote(t, coordinator, spec)
	if local := localReference(t, spec); !bytes.Equal(remote, local) {
		t.Errorf("cluster results differ from local:\n%s\nvs\n%s", remote, local)
	}
	capture.mu.Lock()
	reqs := capture.reqs
	capture.mu.Unlock()
	carried := 0
	for _, jr := range reqs {
		carried += max(jr.Reps, 1)
	}
	if int64(carried) < totalReplicas(spec) {
		t.Fatalf("captured job requests carry %d replicas, want >= %d", carried, totalReplicas(spec))
	}
	for _, jr := range reqs {
		s := jr.Spec
		if len(s.Algorithms) != 1 || len(s.Traffic) != 1 || len(s.Loads) != 1 || len(s.Sizes) != 1 {
			t.Errorf("job %s rep %d carries a %d x %d x %d x %d spec, want one point",
				jr.Point, jr.Rep, len(s.Algorithms), len(s.Traffic), len(s.Loads), len(s.Sizes))
		}
	}

	w3 := newNode(t, service.Options{})
	full := spec.WithDefaults()
	key, rep := full.Points()[full.NumPoints()-1], 1
	old := postJob(t, w3, cluster.JobRequest{Spec: full, Point: key, Rep: rep})
	want, err := experiment.RunReplicaJob(context.Background(), full, key, rep, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if old.Source != cluster.SourceComputed || !reflect.DeepEqual(old.Point, want) {
		t.Errorf("full-spec job = %+v from %q, want %+v computed", old.Point, old.Source, want)
	}
	narrow := postJob(t, w3, cluster.JobRequest{Spec: full.Narrow(key), Point: key, Rep: rep})
	if narrow.Source != cluster.SourceCache || !reflect.DeepEqual(narrow.Point, want) {
		t.Errorf("one-point job = %+v from %q, want the full-spec replica from the cache", narrow.Point, narrow.Source)
	}
}

// metric scrapes one unlabelled sample from a daemon's /metrics.
func metric(t *testing.T, n *node, name string) int64 {
	t.Helper()
	resp, err := http.Get(n.url() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			var x int64
			if _, err := fmt.Sscan(v, &x); err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			return x
		}
	}
	t.Fatalf("no %s sample in /metrics", name)
	return 0
}

// TestLeaseShapeAndLedger: the coordinator leases a whole point per job
// when the study has at least as many points as lanes, and cuts each point
// into near-equal contiguous ranges when it has fewer. Either way the
// study matches a local run byte for byte, every job counter counts
// replicas, and each lease is one successful dispatch.
func TestLeaseShapeAndLedger(t *testing.T) {
	onePoint := testSpec("cluster-lease-split")
	onePoint.Algorithms = experiment.Algs(experiment.Sprinklers)
	onePoint.Loads = []float64{0.6}
	onePoint.Replicas = 6
	for _, tc := range []struct {
		name  string
		spec  experiment.Spec
		par   int
		sizes []int // lease sizes, sorted
	}{
		{"whole-points", testSpec("cluster-lease-whole"), 2, []int{2, 2, 2, 2}},
		{"split-point", onePoint, 4, []int{1, 1, 2, 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w1 := newNode(t, service.Options{})
			w2 := newNode(t, service.Options{})
			capture := &jobCapture{}
			copts := fastOptions(w1.url(), w2.url())
			copts.Transport = capture
			coordinator, _ := newCoordinator(t, copts, service.Options{Parallelism: tc.par})

			remote := runRemote(t, coordinator, tc.spec)
			if local := localReference(t, tc.spec); !bytes.Equal(remote, local) {
				t.Errorf("cluster results differ from local:\n%s\nvs\n%s", remote, local)
			}
			capture.mu.Lock()
			reqs := capture.reqs
			capture.mu.Unlock()
			if len(reqs) != leasesFor(tc.spec, tc.par) {
				t.Errorf("%d leases, want %d", len(reqs), leasesFor(tc.spec, tc.par))
			}
			var sizes []int
			covered := map[string]int{}
			for _, jr := range reqs {
				n := max(jr.Reps, 1)
				sizes = append(sizes, n)
				for rep := jr.Rep; rep < jr.Rep+n; rep++ {
					covered[fmt.Sprintf("%s/%d", jr.Point, rep)]++
				}
			}
			slices.Sort(sizes)
			if !slices.Equal(sizes, tc.sizes) {
				t.Errorf("lease sizes %v, want %v", sizes, tc.sizes)
			}
			want := totalReplicas(tc.spec)
			if int64(len(covered)) != want {
				t.Errorf("leases cover %d distinct replicas, want %d", len(covered), want)
			}
			for r, k := range covered {
				if k != 1 {
					t.Errorf("replica %s leased %d times, want once", r, k)
				}
			}
			if got := coordinator.srv.Counters().JobsDispatched.Load(); got != want {
				t.Errorf("JobsDispatched = %d, want %d (points x replicas)", got, want)
			}
			if got := metric(t, w1, "sprinklerd_jobs_served_total") + metric(t, w2, "sprinklerd_jobs_served_total"); got != want {
				t.Errorf("workers served %d replicas, want %d", got, want)
			}
			if got := metric(t, coordinator, "sprinklerd_dispatch_latency_seconds_count"); got != int64(len(reqs)) {
				t.Errorf("%d successful dispatches, want one per lease (%d)", got, len(reqs))
			}
		})
	}
}

// cutWorker is a worker that serves the first k replicas of every lease it
// gets, simulating them itself, and then ends the response partway
// through the next line, without a trailer — a worker dying mid-lease.
// Its simulations count on ctr.
func cutWorker(t *testing.T, k int, ctr *experiment.Counters) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) { fmt.Fprintln(w, "ok") })
	mux.HandleFunc("POST /api/v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		var req cluster.JobRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		enc := json.NewEncoder(w)
		for rep := req.Rep; rep < req.Rep+min(k, max(req.Reps, 1)); rep++ {
			p, err := experiment.RunReplicaJob(r.Context(), req.Spec, req.Point, rep, 0, ctr, nil)
			if err != nil {
				return
			}
			enc.Encode(cluster.JobResponse{Rep: rep, Point: p, Source: cluster.SourceComputed}) //nolint:errcheck
		}
		w.Write([]byte(`{"rep":`)) //nolint:errcheck
	})
	ts := httptest.NewServer(mux) // CAS reads 404: a sibling that holds nothing
	t.Cleanup(ts.Close)
	return ts
}

// TestStreamCutMidLease: a worker's response ends after k of a lease's n
// replica lines. The coordinator keeps those k, re-dispatches exactly the
// rest to the other worker, and the study matches a local run with every
// replica simulated exactly once across the fleet.
func TestStreamCutMidLease(t *testing.T) {
	spec := testSpec("cluster-stream-cut")
	spec.Algorithms = experiment.Algs(experiment.Sprinklers)
	spec.Loads = []float64{0.6}
	spec.Replicas = 4
	const n = 4
	for _, k := range []int{0, 2} {
		t.Run(fmt.Sprintf("after-%d", k), func(t *testing.T) {
			var cutCtr experiment.Counters
			cut := cutWorker(t, k, &cutCtr)
			w2 := newNode(t, service.Options{})
			capture := &jobCapture{}
			copts := fastOptions(cut.URL, w2.url())
			copts.Transport = capture
			coordinator, _ := newCoordinator(t, copts, service.Options{Parallelism: 1})

			remote := runRemote(t, coordinator, spec)
			if local := localReference(t, spec); !bytes.Equal(remote, local) {
				t.Errorf("results after a cut stream differ from local:\n%s\nvs\n%s", remote, local)
			}
			capture.mu.Lock()
			reqs := capture.reqs
			capture.mu.Unlock()
			var got [][2]int
			for _, jr := range reqs {
				got = append(got, [2]int{jr.Rep, max(jr.Reps, 1)})
			}
			if want := [][2]int{{0, n}, {k, n - k}}; !slices.Equal(got, want) {
				t.Errorf("leases [rep, reps] = %v, want %v: only the undelivered replicas move", got, want)
			}
			c := coordinator.srv.Counters()
			if r, d := c.JobsRetried.Load(), c.JobsRedispatched.Load(); r != n-int64(k) || d != n-int64(k) {
				t.Errorf("JobsRetried = %d, JobsRedispatched = %d, want %d each", r, d, n-k)
			}
			if got := cutCtr.ReplicasComputed.Load() + replicasComputedAcross(coordinator, w2); got != n {
				t.Errorf("computed %d replicas across the fleet, want exactly %d", got, n)
			}
		})
	}
}
