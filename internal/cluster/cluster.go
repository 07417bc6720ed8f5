// Package cluster is the fault-tolerant control plane that turns one
// sprinklerd daemon into a coordinator for many: a study's points are
// leased to worker daemons, one point's replicas per lease, and stream
// back one replica at a time. Failures are retried with capped exponential
// backoff and jitter, a worker that stops answering is marked suspect and
// the replicas it did not deliver are re-dispatched to healthy peers, and
// with every worker down the coordinator degrades to local execution — a
// study always completes, and completes byte-identical to a single-node
// run, because the work unit (one content-identified replica) computes the
// same Point on any node.
//
// The coordinator plugs into the experiment engine through
// experiment.StudyConfig.RangeRunner, so grid ordering, the cache
// pre-pass and replica aggregation are exactly the single-node code paths;
// this package only decides WHERE replicas run and what to do when that
// place dies.
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
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sprinklers/internal/experiment"
	"sprinklers/internal/stats"
	"sprinklers/internal/trace"
)

// Replica sources, reported by workers in JobResponse.Source.
const (
	// SourceComputed: the worker simulated the replica.
	SourceComputed = "computed"
	// SourceCache: the worker served the replica from its local cache.
	SourceCache = "cache"
	// SourcePeer: the worker filled the replica from a sibling's cache.
	SourcePeer = "peer"
)

// JobRequest is one lease: a normalized spec that contains the point, the
// point, the replicas [Rep, Rep+Reps) to serve, the lease the worker must
// finish within, and the sibling workers it may fill its cache from before
// simulating. Reps defaults to 1, so a one-replica lease has the same
// bytes as a request without the field. The coordinator sends the point's
// one-point spec (Spec.Narrow); a worker serves any spec containing the
// point the same way, since the point's identity and seeds do not depend
// on the rest.
type JobRequest struct {
	Spec    experiment.Spec     `json:"spec"`
	Point   experiment.PointKey `json:"point"`
	Rep     int                 `json:"rep"`
	Reps    int                 `json:"reps,omitempty"`
	LeaseMS int64               `json:"lease_ms,omitempty"`
	Peers   []string            `json:"peers,omitempty"`
}

// JobResponse is one line of a job's NDJSON (newline-delimited JSON)
// response: replica Rep's measurements and where they came from. A worker
// writes one line per replica of the lease, in replica order, flushed as
// each finishes, and then one JobTrailer line. A 4xx or 5xx status comes
// before any line, never after one.
type JobResponse struct {
	Rep    int              `json:"rep"`
	Point  experiment.Point `json:"point"`
	Source string           `json:"source"`
}

// JobTrailer is the last line of a complete job response. Spans carries
// the worker-side trace spans of the job when the request carried trace
// headers — response-only observability that never feeds back into
// results, seeds, or cache keys. A response that ends before its trailer
// (lease expiry, a worker crash, a cut connection, a body over
// maxPeerBodyBytes) is a transient failure of the replicas it did not
// deliver.
type JobTrailer struct {
	End   bool         `json:"end"`
	Spans []trace.Span `json:"spans,omitempty"`
}

// jobLine decodes either line of a job response.
type jobLine struct {
	JobResponse
	JobTrailer
}

// permanentError marks a dispatch failure that retrying cannot fix (the
// worker rejected the job as invalid); the coordinator propagates it
// instead of burning the retry budget.
type permanentError struct{ Err error }

func (e *permanentError) Error() string { return e.Err.Error() }
func (e *permanentError) Unwrap() error { return e.Err }

// Options configures a Coordinator.
type Options struct {
	// Workers lists the worker daemon base URLs known at startup; more may
	// join later via Register.
	Workers []string
	// Lease bounds the execution of one replica: a lease carrying n
	// replicas times out after n×Lease, both client-side (the dispatch
	// request) and server-side (the worker aborts its simulation), so a
	// partitioned worker cannot hold a job forever. Default 2m.
	Lease time.Duration
	// HeartbeatInterval is the probe period of the health loop (default
	// 1s). A worker is probed at /healthz; SuspectAfter consecutive
	// failures (probe or dispatch) mark it suspect, and a later successful
	// probe revives it.
	HeartbeatInterval time.Duration
	// SuspectAfter is the consecutive-failure threshold (default 2).
	SuspectAfter int
	// MaxAttempts bounds dispatch attempts per lease before the coordinator
	// gives up on the fleet and runs the undelivered replicas locally
	// (default 6).
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
	// Speculate arms speculative re-execution: a lease whose next replica
	// has been outstanding longer than the P95 of observed per-replica
	// latency is raced by a backup for its remaining replicas on an idle
	// worker (nothing outstanding, queued or running), and each replica
	// is taken from whichever branch delivers it first. A loser's replica
	// is deduplicated by the per-replica CAS key; one that simulated
	// anyway is counted in SpeculativeWasted, never aggregated.
	Speculate bool
}

// worker is one tracked worker daemon.
type worker struct {
	url string

	mu      sync.Mutex
	healthy bool
	fails   int // consecutive failures
	// lastContact is the last time this worker answered anything — a probe,
	// a dispatch, or a registration. The probe loop skips workers heard
	// from within the heartbeat interval.
	lastContact time.Time
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
// worker.
func (w *worker) addOutstanding(n int) {
	w.mu.Lock()
	w.outstanding += n
	w.mu.Unlock()
}

// load is the worker's load for placement and speculation: the
// coordinator's own outstanding dispatches there, the cluster's only load
// signal.
func (w *worker) load() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.outstanding
}

// Coordinator leases points to worker daemons and survives their deaths.
// Create one with New, start its health loop with Start, and hang
// RunReplicas off experiment.StudyConfig.RangeRunner.
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

	// specLat tracks the latencyPct percentile of per-replica latency:
	// the time from a lease's start, or its previous replica, to each
	// replica it delivers. It is always on — with speculation disabled it
	// still drives slow-job warnings. Guarded by specMu.
	specMu  sync.Mutex
	specLat *stats.P2

	mu      sync.Mutex
	workers []*worker
	rr      int // round-robin cursor
}

// New returns a coordinator for the given workers. Workers start healthy;
// the first heartbeat round corrects optimism within HeartbeatInterval. A
// worker URL Register would reject is skipped; check untrusted URLs with
// CheckURL first, as sprinklerd does.
// Its counters are private and its log discarded until UseCounters,
// UseDispatchHist and UseLogger redirect them, as service.New does.
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
		opts:     opts,
		httpc:    &http.Client{Transport: opts.Transport},
		counters: &experiment.Counters{},
		log:      slog.New(slog.DiscardHandler),
		rng:      rand.New(rand.NewSource(seed)),
		// The latency percentile is tracked whether or not speculation is
		// armed: slow-job warnings need it on every deployment, including
		// single-worker ones where speculation would be pointless.
		specLat: stats.NewP2(latencyPct),
	}
	for _, u := range opts.Workers {
		c.Register(u) //nolint:errcheck // documented: a bad URL is skipped
	}
	return c
}

// UseCounters redirects the coordinator's job accounting onto ctr —
// typically the serving daemon's process-lifetime counters, so /metrics
// shows dispatch/retry/fallback totals. Call before Start and the first
// dispatch.
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
// before Start and the first dispatch.
func (c *Coordinator) UseLogger(lg *slog.Logger) {
	if lg != nil {
		c.log = lg
	}
}

// CheckURL reports whether raw is a base URL the cluster can dial: an
// absolute http or https URL with a host (an empty hostname, as in
// http://:9001, means the local machine).
func CheckURL(raw string) error {
	u, err := url.Parse(raw)
	if err != nil {
		return fmt.Errorf("cluster: bad url: %w", err)
	}
	if (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return fmt.Errorf("cluster: bad url %q: want an absolute http or https url with a host", raw)
	}
	return nil
}

// Register adds a worker by base URL, or revives it if already known — e.g.
// one that restarted. It is the cluster's one membership call: a joined
// worker repeats it every heartbeat interval. A URL CheckURL rejects is an
// error and leaves the table alone.
func (c *Coordinator) Register(u string) error {
	if err := CheckURL(u); err != nil {
		return err
	}
	c.register(u)
	return nil
}

// register adds (or revives) a worker by a checked URL and returns its
// table entry.
func (c *Coordinator) register(url string) *worker {
	url = strings.TrimSuffix(url, "/")
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
			// A registration (or successful dispatch) just came in; a
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

// lease is the coordinator's ledger of one range of a point's replicas:
// replicas [first, first+done) have arrived, in order, into pts.
type lease struct {
	first, done int
	pts         []experiment.Point
}

// left is how many replicas have not arrived yet.
func (l *lease) left() int { return len(l.pts) - l.done }

// take records the next replica.
func (l *lease) take(p experiment.Point) {
	l.pts[l.done] = p
	l.done++
}

// RunReplicas executes replicas [first, first+n) of one point somewhere:
// as one lease on a healthy worker, which streams the replicas back as
// they finish; after a transient failure, the replicas not yet delivered
// go to another worker, or to the same one after capped exponential
// backoff with jitter; when no healthy worker remains or the retry budget
// is spent, they run locally. Every replica that arrived is kept, so a
// dead worker costs at most its in-flight replica. It is the
// experiment.StudyConfig.RangeRunner of a cluster-mode study. Every job
// counter counts replicas.
func (c *Coordinator) RunReplicas(ctx context.Context, spec experiment.Spec, key experiment.PointKey, first, n int) ([]experiment.Point, error) {
	// The dispatch span covers the lease's whole coordinator-side life —
	// every attempt, backoff and speculative race — and parents the
	// worker-side spans merged from job responses.
	dsp := trace.FromContext(ctx).Start("dispatch")
	dsp.SetJob(key.String(), first)
	defer dsp.End()
	ctx = dsp.Context(ctx)
	tc := trace.FromContext(ctx)
	l := &lease{first: first, pts: make([]experiment.Point, n)}
	var last *worker
	for attempt := 0; attempt < c.opts.MaxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		w := c.pick(last)
		if w == nil {
			break // nobody healthy: degrade below
		}
		rest := int64(l.left())
		if attempt > 0 {
			c.counters.JobsRetried.Add(rest)
			if last != nil && w != last {
				// Failover to a different healthy worker is immediate:
				// backoff only gates retries against the same (suspect)
				// path, where hammering would make things worse.
				c.counters.JobsRedispatched.Add(rest)
				c.log.Info("cluster: job re-dispatched",
					"job", key.String(), "rep", first+l.done, "reps", rest, "from", last.url, "to", w.url, "trace", tc.Trace)
				tc.Event("redispatch", "job", key.String(), "from", last.url, "to", w.url)
			} else if err := c.backoff(ctx, attempt); err != nil {
				return nil, err
			}
		}
		c.counters.JobsDispatched.Add(rest)
		winner, err := c.race(ctx, w, spec, key, l)
		if err == nil {
			winner.ok()
			dsp.Attr("worker", winner.url)
			return l.pts, nil
		}
		var perm *permanentError
		if errors.As(err, &perm) {
			return nil, err
		}
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		if w.fail(c.opts.SuspectAfter) {
			c.log.Warn("cluster: worker marked suspect", "worker", w.url, "cause", "dispatch", "err", err)
		}
		last = w
	}
	// Degraded mode: the fleet is gone (or spent its retry budget) — the
	// study must still finish, so the undelivered replicas run in-process.
	c.counters.LocalFallbacks.Add(int64(l.left()))
	tc.Event("local-fallback", "job", key.String())
	dsp.Attr("source", "local-fallback")
	for l.left() > 0 {
		p, err := experiment.RunReplicaJob(ctx, spec, key, first+l.done, 0, c.counters, nil)
		if err != nil {
			return nil, err
		}
		l.take(p)
	}
	return l.pts, nil
}

// dispatch POSTs replicas [first, first+n) of one point to a worker under
// the lease and hands each replica line to deliver as it arrives. It
// returns nil once the trailer arrives after all n lines. Errors are
// transient unless wrapped in permanentError; the replicas already
// delivered stay delivered. When ctx carries trace context, a lease span
// wraps the attempt, its ID travels in the X-Sprinklerd-Span header so
// worker-side spans parent under it, and the spans the worker attached to
// the trailer are merged into the coordinator's journal.
func (c *Coordinator) dispatch(ctx context.Context, w *worker, spec experiment.Spec, key experiment.PointKey, first, n int,
	deliver func(rep int, p experiment.Point, src string)) error {
	tc := trace.FromContext(ctx)
	lsp := tc.Start("lease")
	lsp.SetJob(key.String(), first)
	lsp.Attr("worker", w.url)
	defer lsp.End()
	lease := c.opts.Lease * time.Duration(n)
	jctx, cancel := context.WithTimeout(ctx, lease)
	defer cancel()
	body, err := json.Marshal(JobRequest{
		Spec:    spec.Narrow(key),
		Point:   key,
		Rep:     first,
		Reps:    n,
		LeaseMS: lease.Milliseconds(),
		Peers:   c.peersOf(w.url),
	})
	if err != nil {
		return &permanentError{err}
	}
	req, err := http.NewRequestWithContext(jctx, http.MethodPost, w.url+"/api/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return &permanentError{err}
	}
	req.Header.Set("Content-Type", "application/json")
	trace.Inject(req.Header, lsp.SpanContext())
	resp, err := c.httpc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		err := fmt.Errorf("cluster: %s: %s: %s", w.url, resp.Status, strings.TrimSpace(string(msg)))
		if resp.StatusCode/100 == 4 {
			return &permanentError{err}
		}
		return err
	}
	dec := json.NewDecoder(&cappedReader{r: resp.Body, left: maxPeerBodyBytes})
	for rep := first; ; rep++ {
		var ln jobLine
		if err := dec.Decode(&ln); err != nil {
			return fmt.Errorf("cluster: %s: job response ended after %d of %d replicas: %w", w.url, rep-first, n, err)
		}
		if ln.End {
			if rep != first+n {
				return fmt.Errorf("cluster: %s: job response trailer after %d of %d replicas", w.url, rep-first, n)
			}
			if tc.Enabled() {
				for _, sp := range ln.Spans {
					// Stamp the coordinator's study onto adopted worker spans
					// so the study filter sees one merged timeline.
					sp.Study = tc.Study
					tc.J.Record(sp)
				}
			}
			return nil
		}
		if rep == first+n || ln.Rep != rep || ln.Source == "" {
			return fmt.Errorf("cluster: %s: job response line for replica %d, want replica %d of [%d,%d)", w.url, ln.Rep, rep, first, first+n)
		}
		deliver(rep, ln.Point, ln.Source)
	}
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
// (FetchCAS) or a job response (dispatch). A CAS entry is kilobytes — a
// windowed point adds ≈ 200 B a window — and a job response is one such
// line per replica plus a few hundred bytes a span, so the cap only stops
// a broken or hostile peer from exhausting memory. A body past it is a
// miss (CAS) or a transient failure (job), never a result.
const maxPeerBodyBytes = 16 << 20

// cappedReader reads from r, failing once more than left bytes arrive.
type cappedReader struct {
	r    io.Reader
	left int64
}

func (c *cappedReader) Read(b []byte) (int, error) {
	if int64(len(b)) > c.left+1 {
		b = b[:c.left+1]
	}
	n, err := c.r.Read(b)
	if c.left -= int64(n); c.left < 0 {
		return n, fmt.Errorf("cluster: peer body exceeds the %d-byte cap", maxPeerBodyBytes)
	}
	return n, err
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
	b, err := io.ReadAll(&cappedReader{r: resp.Body, left: maxPeerBodyBytes})
	if err != nil {
		return nil, err
	}
	return b, nil
}
