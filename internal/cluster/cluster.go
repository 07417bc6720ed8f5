// Package cluster is the fault-tolerant control plane that turns one
// sprinklerd daemon into a coordinator for many: a study's (point, replica)
// jobs are sharded across worker daemons under leases, failures are
// retried with capped exponential backoff and jitter, a worker that stops
// answering is marked suspect and its jobs are re-dispatched to healthy
// peers, and with every worker down the coordinator degrades to local
// execution — a study always completes, and completes byte-identical to a
// single-node run, because the work unit (one content-identified replica)
// computes the same Point on any node.
//
// The coordinator plugs into the experiment engine through
// experiment.StudyConfig.ReplicaRunner, so grid ordering, checkpointing,
// the cache pre-pass and replica aggregation are exactly the single-node
// code paths; this package only decides WHERE a replica runs and what to
// do when that place dies.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sprinklers/internal/experiment"
	"sprinklers/internal/resultcache"
	"sprinklers/internal/stats"
	"sprinklers/internal/trace"
)

// Job sources, reported by workers in JobResponse.Source.
const (
	// SourceComputed: the worker simulated the replica.
	SourceComputed = "computed"
	// SourceCache: the worker served the replica from its local cache.
	SourceCache = "cache"
	// SourcePeer: the worker filled the replica from a sibling's cache.
	SourcePeer = "peer"
)

// JobRequest is one leased (point, replica) dispatch: a normalized spec
// that contains the point, the point, the replica index, the lease the
// worker must finish within, and the sibling workers it may fill its cache
// from before simulating. The coordinator sends the point's one-point spec
// (Spec.Narrow); a worker serves any spec containing the point the same
// way, since the point's identity and seeds do not depend on the rest.
type JobRequest struct {
	Spec    experiment.Spec     `json:"spec"`
	Point   experiment.PointKey `json:"point"`
	Rep     int                 `json:"rep"`
	LeaseMS int64               `json:"lease_ms,omitempty"`
	Peers   []string            `json:"peers,omitempty"`
}

// JobResponse is a completed job: the replica's measurements and where
// they came from. Spans carries the worker-side trace spans of the job
// when the request carried trace headers — response-only observability
// that never feeds back into results, seeds, or cache keys.
type JobResponse struct {
	Point  experiment.Point `json:"point"`
	Source string           `json:"source"`
	Spans  []trace.Span     `json:"spans,omitempty"`
}

// PermanentError marks a dispatch failure that retrying cannot fix (the
// worker rejected the job as invalid); the coordinator propagates it
// instead of burning the retry budget.
type PermanentError struct{ Err error }

func (e *PermanentError) Error() string { return e.Err.Error() }
func (e *PermanentError) Unwrap() error { return e.Err }

// Options configures a Coordinator.
type Options struct {
	// Workers lists the worker daemon base URLs known at startup; more may
	// join later via Register.
	Workers []string
	// Lease bounds one job's execution: the dispatch request times out
	// after it (client-side) and the worker aborts the simulation at it
	// (server-side), so a partitioned worker cannot hold a job forever.
	// Default 2m.
	Lease time.Duration
	// HeartbeatInterval is the probe period of the health loop (default
	// 1s). A worker is probed at /healthz; SuspectAfter consecutive
	// failures (probe or dispatch) mark it suspect, and a later successful
	// probe revives it.
	HeartbeatInterval time.Duration
	// SuspectAfter is the consecutive-failure threshold (default 2).
	SuspectAfter int
	// MaxAttempts bounds dispatch attempts per job before the coordinator
	// gives up on the fleet and runs the job locally (default 6).
	MaxAttempts int
	// BaseBackoff and MaxBackoff shape the capped exponential backoff
	// between attempts (defaults 50ms and 2s); jitter derives from Seed.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// Seed makes the backoff jitter deterministic for tests (0 = 1).
	Seed int64
	// Transport overrides the dispatch HTTP transport — the fault-
	// injection hook (default http.DefaultTransport).
	Transport http.RoundTripper
	// Speculate arms speculative re-execution: a job outstanding longer
	// than the P95 of observed dispatch latency is raced by a backup on an
	// idle worker (nothing outstanding, queued or running), and the first
	// result wins.
	// The loser is deduplicated by the per-replica CAS key; a loser that
	// simulated anyway is counted in SpeculativeWasted, never aggregated.
	Speculate bool
	// Counters receives job-level accounting (required for metrics; nil
	// allocates a private set).
	Counters *experiment.Counters
	// Logger receives structured cluster events (worker lifecycle,
	// re-dispatch, speculation, slow jobs); nil discards them.
	Logger *slog.Logger
	// DispatchHist, when set, observes the latency of every successful
	// job dispatch (send to response decode).
	DispatchHist *stats.Histogram
}

// worker is one tracked worker daemon.
type worker struct {
	url string

	mu      sync.Mutex
	healthy bool
	fails   int // consecutive failures
	// lastContact is the last time this worker answered anything — a probe,
	// a dispatch, or a push heartbeat. The probe loop skips workers heard
	// from within the heartbeat interval.
	lastContact time.Time
	// report is the worker's last pushed load report and when it arrived
	// (zero reportTime = never). Stale reports fall out of placement.
	report      LoadReport
	reportTime  time.Time
	outstanding int // dispatches the coordinator currently has in flight here
}

func (w *worker) ok() {
	w.mu.Lock()
	w.healthy = true
	w.fails = 0
	w.lastContact = time.Now()
	w.mu.Unlock()
}

// fail records one failure and reports whether this crossed the suspect
// threshold (true exactly once per transition).
func (w *worker) fail(suspectAfter int) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.fails++
	if w.healthy && w.fails >= suspectAfter {
		w.healthy = false
		return true
	}
	return false
}

func (w *worker) isHealthy() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.healthy
}

// heardWithin reports whether the worker is healthy and answered something
// within d — the probe-suppression predicate. A worker the coordinator has
// outstanding dispatches on also counts as in contact: the dispatch outcome
// (bounded by the lease) is a stronger health signal than a probe, and
// probing a worker mid-simulation only adds load and false suspicion.
// Suspect workers never match — probing is how they revive.
func (w *worker) heardWithin(d time.Duration) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.healthy {
		return false
	}
	if w.outstanding > 0 {
		return true
	}
	return !w.lastContact.IsZero() && time.Since(w.lastContact) < d
}

// addOutstanding tracks the coordinator's own in-flight dispatches to this
// worker — load signal that needs no report at all.
func (w *worker) addOutstanding(n int) {
	w.mu.Lock()
	w.outstanding += n
	w.mu.Unlock()
}

// load returns the worker's effective load for placement: the coordinator's
// own outstanding dispatches, plus the worker's reported queue depth and
// in-flight jobs when the report is fresher than staleAfter. fresh reports
// whether a report backed the value.
func (w *worker) load(staleAfter time.Duration) (depth int, fresh bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	depth = w.outstanding
	if !w.reportTime.IsZero() && time.Since(w.reportTime) < staleAfter {
		return depth + w.report.QueueDepth + w.report.Inflight, true
	}
	return depth, false
}

// Coordinator shards replica jobs across worker daemons and survives their
// deaths. Create one with New, start its health loop with Start, and hang
// RunReplica off experiment.StudyConfig.ReplicaRunner.
type Coordinator struct {
	opts         Options
	httpc        *http.Client
	counters     *experiment.Counters
	log          *slog.Logger
	dispatchHist *stats.Histogram

	rngMu sync.Mutex
	rng   *rand.Rand

	// specPending counts speculative losers not yet reaped.
	specPending atomic.Int64

	// specLat tracks the latencyPct percentile of successful dispatch
	// latencies. It is always on — with speculation disabled it still
	// drives slow-job warnings. Guarded by specMu.
	specMu  sync.Mutex
	specLat *stats.P2

	mu      sync.Mutex
	workers []*worker
	rr      int // round-robin cursor
}

// New returns a coordinator for the given workers. Workers start healthy;
// the first heartbeat round corrects optimism within HeartbeatInterval.
func New(opts Options) *Coordinator {
	if opts.Lease <= 0 {
		opts.Lease = 2 * time.Minute
	}
	if opts.HeartbeatInterval <= 0 {
		opts.HeartbeatInterval = time.Second
	}
	if opts.SuspectAfter <= 0 {
		opts.SuspectAfter = 2
	}
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = 6
	}
	if opts.BaseBackoff <= 0 {
		opts.BaseBackoff = 50 * time.Millisecond
	}
	if opts.MaxBackoff <= 0 {
		opts.MaxBackoff = 2 * time.Second
	}
	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}
	c := &Coordinator{
		opts:         opts,
		httpc:        &http.Client{Transport: opts.Transport},
		counters:     opts.Counters,
		dispatchHist: opts.DispatchHist,
		rng:          rand.New(rand.NewSource(seed)),
		// The latency percentile is tracked whether or not speculation is
		// armed: slow-job warnings need it on every deployment, including
		// single-worker ones where speculation would be pointless.
		specLat: stats.NewP2(latencyPct),
	}
	if c.counters == nil {
		c.counters = &experiment.Counters{}
	}
	c.log = opts.Logger
	if c.log == nil {
		c.log = slog.New(slog.DiscardHandler)
	}
	for _, u := range opts.Workers {
		c.Register(u)
	}
	return c
}

// UseCounters redirects the coordinator's job accounting onto ctr —
// typically the serving daemon's process-lifetime counters, so /metrics
// shows dispatch/retry/fallback totals. Call before the first dispatch.
func (c *Coordinator) UseCounters(ctr *experiment.Counters) {
	if ctr != nil {
		c.counters = ctr
	}
}

// UseDispatchHist points dispatch-latency observations at h — typically
// the serving daemon's histogram, so /metrics exposes the distribution.
// Call before the first dispatch.
func (c *Coordinator) UseDispatchHist(h *stats.Histogram) {
	if h != nil {
		c.dispatchHist = h
	}
}

// UseLogger redirects the coordinator's structured log output. Call
// before the first dispatch.
func (c *Coordinator) UseLogger(lg *slog.Logger) {
	if lg != nil {
		c.log = lg
	}
}

// Register adds a worker by base URL (idempotent). A re-registering
// worker — e.g. one that restarted — is revived immediately.
func (c *Coordinator) Register(url string) { c.register(url) }

// register adds (or revives) a worker and returns its table entry.
func (c *Coordinator) register(url string) *worker {
	url = strings.TrimSuffix(url, "/")
	if url == "" {
		return nil
	}
	c.mu.Lock()
	for _, w := range c.workers {
		if w.url == url {
			c.mu.Unlock()
			w.ok()
			return w
		}
	}
	w := &worker{url: url, healthy: true}
	w.ok()
	c.workers = append(c.workers, w)
	n := len(c.workers)
	c.mu.Unlock()
	c.log.Info("cluster: worker registered", "worker", url, "total", n)
	return w
}

// Heartbeat records a push heartbeat from a worker (the /cluster/heartbeat
// endpoint), registering it if unknown.
func (c *Coordinator) Heartbeat(url string) { c.HeartbeatLoad(url, nil) }

// HeartbeatLoad records a push heartbeat carrying the worker's load report
// (nil = a bare registration). Contact time is recorded so the probe loop
// stops re-probing workers that just pushed.
func (c *Coordinator) HeartbeatLoad(url string, load *LoadReport) {
	w := c.register(url)
	if w == nil || load == nil {
		return
	}
	w.mu.Lock()
	w.report = *load
	w.reportTime = time.Now()
	w.mu.Unlock()
}

// Start runs the health-probe loop until ctx is done: every interval each
// worker's /healthz is probed, failures accumulate toward suspect, and a
// suspect worker that answers again is revived. Start returns immediately.
func (c *Coordinator) Start(ctx context.Context) {
	go func() {
		t := time.NewTicker(c.opts.HeartbeatInterval)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				c.probeAll(ctx)
			}
		}
	}()
}

// probeTimeoutFloor is the minimum per-probe timeout, regardless of how
// tight the heartbeat interval is tuned.
const probeTimeoutFloor = time.Second

func (c *Coordinator) probeAll(ctx context.Context) {
	for _, w := range c.snapshotWorkers() {
		if w.heardWithin(c.opts.HeartbeatInterval) {
			// A push heartbeat (or successful dispatch) just came in; a
			// probe would only add load. Suspect workers never match —
			// probing is how they revive.
			continue
		}
		// The probe timeout only bounds a hung worker; it is NOT the probe
		// cadence. Flooring it decouples tightly-tuned heartbeat intervals
		// from probe latency on a loaded machine, where an in-process
		// worker can take tens of milliseconds to answer /healthz —
		// timing out such probes marks perfectly healthy workers suspect.
		timeout := c.opts.HeartbeatInterval
		if timeout < probeTimeoutFloor {
			timeout = probeTimeoutFloor
		}
		pctx, cancel := context.WithTimeout(ctx, timeout)
		err := c.probe(pctx, w.url)
		cancel()
		if err == nil {
			if !w.isHealthy() {
				c.log.Info("cluster: worker revived", "worker", w.url)
			}
			w.ok()
			continue
		}
		if w.fail(c.opts.SuspectAfter) {
			c.log.Warn("cluster: worker marked suspect", "worker", w.url, "cause", "heartbeat", "err", err)
		}
	}
}

func (c *Coordinator) probe(ctx context.Context, url string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := c.httpc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1024)) //nolint:errcheck
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("healthz: %s", resp.Status)
	}
	return nil
}

func (c *Coordinator) snapshotWorkers() []*worker {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*worker, len(c.workers))
	copy(out, c.workers)
	return out
}

// healthyURLs returns the healthy workers' base URLs.
func (c *Coordinator) healthyURLs() []string {
	var out []string
	for _, w := range c.snapshotWorkers() {
		if w.isHealthy() {
			out = append(out, w.url)
		}
	}
	return out
}

// Degraded reports whether the cluster has workers configured but none
// healthy — the state /healthz and /metrics surface while the coordinator
// runs jobs locally.
func (c *Coordinator) Degraded() bool {
	c.mu.Lock()
	n := len(c.workers)
	c.mu.Unlock()
	return n > 0 && len(c.healthyURLs()) == 0
}

// Stats is a point-in-time cluster summary for /metrics.
type Stats struct {
	WorkersTotal   int
	WorkersHealthy int
	// SpeculativePending counts speculative losers still in flight: backup
	// races whose slower branch has not returned yet. Tests wait for it to
	// reach zero before asserting the replicas-computed invariant.
	SpeculativePending int
}

// Snapshot returns the cluster's current worker counts.
func (c *Coordinator) Snapshot() Stats {
	c.mu.Lock()
	n := len(c.workers)
	c.mu.Unlock()
	return Stats{
		WorkersTotal:       n,
		WorkersHealthy:     len(c.healthyURLs()),
		SpeculativePending: int(c.specPending.Load()),
	}
}

// backoff sleeps the capped exponential backoff for the given retry
// attempt (1-based), with full jitter drawn from the seeded generator, or
// returns early when ctx dies.
func (c *Coordinator) backoff(ctx context.Context, attempt int) error {
	d := c.opts.BaseBackoff << (attempt - 1)
	if d > c.opts.MaxBackoff || d <= 0 {
		d = c.opts.MaxBackoff
	}
	c.rngMu.Lock()
	// Half fixed, half jittered: retries spread out without ever being
	// immediate.
	d = d/2 + time.Duration(c.rng.Int63n(int64(d/2)+1))
	c.rngMu.Unlock()
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// RunReplica executes one (point, replica) job somewhere: on a healthy
// worker under a lease, on another worker after transient failures (capped
// exponential backoff + jitter between attempts), or locally when no
// healthy worker remains or the retry budget is exhausted. It is the
// experiment.StudyConfig.ReplicaRunner of a cluster-mode study.
func (c *Coordinator) RunReplica(ctx context.Context, spec experiment.Spec, key experiment.PointKey, rep int) (experiment.Point, error) {
	// The dispatch span covers the job's whole coordinator-side life —
	// every attempt, backoff and speculative race — and
	// parents the worker-side spans merged from job responses.
	dsp := trace.FromContext(ctx).Start("dispatch")
	dsp.SetJob(key.String(), rep)
	defer dsp.End()
	ctx = dsp.Context(ctx)
	tc := trace.FromContext(ctx)
	var last *worker
	for attempt := 0; attempt < c.opts.MaxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return experiment.Point{}, err
		}
		w := c.pick(last)
		if w == nil {
			break // nobody healthy: degrade below
		}
		if attempt > 0 {
			c.counters.JobsRetried.Add(1)
			if last != nil && w != last {
				// Failover to a different healthy worker is immediate:
				// backoff only gates retries against the same (suspect)
				// path, where hammering would make things worse.
				c.counters.JobsRedispatched.Add(1)
				c.log.Info("cluster: job re-dispatched",
					"job", key.String(), "rep", rep, "from", last.url, "to", w.url, "trace", tc.Trace)
				tc.Event("redispatch", "job", key.String(), "from", last.url, "to", w.url)
			} else if err := c.backoff(ctx, attempt); err != nil {
				return experiment.Point{}, err
			}
		}
		c.counters.JobsDispatched.Add(1)
		p, src, winner, err := c.dispatchSpeculate(ctx, w, spec, key, rep)
		if err == nil {
			winner.ok()
			if src == SourcePeer {
				c.counters.PeerCacheFills.Add(1)
			}
			dsp.Attr("worker", winner.url)
			dsp.Attr("source", src)
			return p, nil
		}
		var perm *PermanentError
		if errors.As(err, &perm) {
			return experiment.Point{}, err
		}
		if cerr := ctx.Err(); cerr != nil {
			return experiment.Point{}, cerr
		}
		if w.fail(c.opts.SuspectAfter) {
			c.log.Warn("cluster: worker marked suspect", "worker", w.url, "cause", "dispatch", "err", err)
		}
		last = w
	}
	// Degraded mode: the fleet is gone (or spent its retry budget) — the
	// study must still finish, so the replica runs in-process.
	c.counters.LocalFallbacks.Add(1)
	tc.Event("local-fallback", "job", key.String())
	dsp.Attr("source", "local-fallback")
	return experiment.RunReplicaJob(ctx, spec, key, rep, 0, c.counters, nil)
}

// dispatch POSTs one job to a worker under the lease and decodes the
// result. Errors are transient unless wrapped in PermanentError. When
// ctx carries trace context, a lease span wraps the attempt, its ID
// travels in the X-Sprinklerd-Span header so worker-side spans parent
// under it, and the spans the worker attached to the response are
// merged into the coordinator's journal.
func (c *Coordinator) dispatch(ctx context.Context, w *worker, spec experiment.Spec, key experiment.PointKey, rep int) (experiment.Point, string, error) {
	tc := trace.FromContext(ctx)
	lsp := tc.Start("lease")
	lsp.SetJob(key.String(), rep)
	lsp.Attr("worker", w.url)
	defer lsp.End()
	jctx, cancel := context.WithTimeout(ctx, c.opts.Lease)
	defer cancel()
	body, err := json.Marshal(JobRequest{
		Spec:    spec.Narrow(key),
		Point:   key,
		Rep:     rep,
		LeaseMS: c.opts.Lease.Milliseconds(),
		Peers:   c.peersOf(w.url),
	})
	if err != nil {
		return experiment.Point{}, "", &PermanentError{err}
	}
	req, err := http.NewRequestWithContext(jctx, http.MethodPost, w.url+"/api/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return experiment.Point{}, "", &PermanentError{err}
	}
	req.Header.Set("Content-Type", "application/json")
	trace.Inject(req.Header, lsp.SpanContext())
	resp, err := c.httpc.Do(req)
	if err != nil {
		return experiment.Point{}, "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		err := fmt.Errorf("cluster: %s: %s: %s", w.url, resp.Status, strings.TrimSpace(string(msg)))
		if resp.StatusCode/100 == 4 {
			return experiment.Point{}, "", &PermanentError{err}
		}
		return experiment.Point{}, "", err
	}
	b, err := readCapped(resp.Body, maxPeerBodyBytes)
	if err != nil {
		return experiment.Point{}, "", fmt.Errorf("cluster: %s: reading job response: %w", w.url, err)
	}
	var jr JobResponse
	if err := json.Unmarshal(b, &jr); err != nil {
		return experiment.Point{}, "", fmt.Errorf("cluster: %s: decoding job response: %w", w.url, err)
	}
	if tc.Enabled() {
		for _, sp := range jr.Spans {
			// Stamp the coordinator's study onto adopted worker spans so
			// the study filter sees one merged timeline.
			sp.Study = tc.Study
			tc.J.Record(sp)
		}
	}
	return jr.Point, jr.Source, nil
}

// peersOf lists the healthy workers other than url — the siblings a worker
// may fill its cache from before simulating.
func (c *Coordinator) peersOf(url string) []string {
	var out []string
	for _, u := range c.healthyURLs() {
		if u != url {
			out = append(out, u)
		}
	}
	return out
}

// maxPeerBodyBytes caps what the cluster reads from a peer: a CAS entry
// (FetchCAS) or a job response (dispatch). Both are kilobytes — a windowed
// point adds ≈ 200 B a window, a traced job a few hundred bytes a span — so
// the cap only stops a broken or hostile peer from exhausting memory. A
// body past it is a miss (CAS) or a transient failure (job), never a result.
const maxPeerBodyBytes = 16 << 20

// readCapped reads r to EOF, failing once more than limit bytes arrive.
func readCapped(r io.Reader, limit int64) ([]byte, error) {
	b, err := io.ReadAll(io.LimitReader(r, limit+1))
	if err != nil {
		return nil, err
	}
	if int64(len(b)) > limit {
		return nil, fmt.Errorf("cluster: peer body exceeds the %d-byte cap", limit)
	}
	return b, nil
}

// FetchCAS reads one raw cache entry from a node's CAS endpoint. A missing
// key returns (nil, nil) — a miss, not an error. An entry larger than
// maxPeerBodyBytes is an error, which every caller counts as a miss too.
func FetchCAS(ctx context.Context, httpc *http.Client, baseURL, key string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		strings.TrimSuffix(baseURL, "/")+"/api/v1/cas/"+key, nil)
	if err != nil {
		return nil, err
	}
	resp, err := httpc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1024)) //nolint:errcheck
		return nil, nil
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("cluster: cas %s: %s", baseURL, resp.Status)
	}
	return readCapped(resp.Body, maxPeerBodyBytes)
}

// casFillTimeout bounds one peer CAS probe during the coordinator's cache
// pre-pass: a dead sibling must cost milliseconds-to-seconds, not a hang.
const casFillTimeout = 3 * time.Second

// WrapCache layers peer cache fill over the coordinator's local store:
// a point missing locally is fetched from healthy siblings' CAS before the
// study schedules any simulation, then stored locally (validation — and
// quarantine of a corrupt fill — happens in the experiment layer's decode
// path, same as any local entry).
func (c *Coordinator) WrapCache(local *resultcache.Store) experiment.PointCache {
	return &peerCache{c: c, local: local}
}

type peerCache struct {
	c     *Coordinator
	local *resultcache.Store
}

func (p *peerCache) Get(key string) ([]byte, bool, error) {
	b, ok, err := p.local.Get(key)
	if ok || err != nil {
		return b, ok, err
	}
	for _, url := range p.c.healthyURLs() {
		ctx, cancel := context.WithTimeout(context.Background(), casFillTimeout)
		b, err := FetchCAS(ctx, p.c.httpc, url, key)
		cancel()
		if err != nil || b == nil {
			continue // a sick peer is a miss, not a failed study
		}
		if err := p.local.Put(key, b); err != nil {
			return nil, false, err
		}
		p.c.counters.PeerCacheFills.Add(1)
		return b, true, nil
	}
	return nil, false, nil
}

func (p *peerCache) Put(key string, val []byte) error { return p.local.Put(key, val) }

// Quarantine forwards to the local store, so a corrupt entry (locally
// written or peer-filled) is set aside exactly like in single-node mode.
func (p *peerCache) Quarantine(key string) error { return p.local.Quarantine(key) }
