// Package service is the study-serving daemon core behind cmd/sprinklerd:
// a long-running server that accepts declarative study Specs over HTTP,
// executes them on a shared worker pool against a content-addressed result
// cache (internal/resultcache), streams per-point progress, and serves the
// aggregated results and every rendering the CLI tools produce locally.
//
// The serving model inverts the batch CLIs: a point is simulated at most
// once per cache lifetime, no matter how many studies ask for it. Study
// identity is the hash of the normalized spec, so two submissions of the
// same study — concurrent or years apart — converge on one execution
// (in-flight deduplication) or one cache read (resubmission). The cache is
// the daemon's only durable write: a study canceled, failed or cut short by
// a restart resumes when its spec is submitted again, because RunStudy's
// cache pre-pass serves every point it already computed.
package service

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sprinklers/internal/cluster"
	"sprinklers/internal/experiment"
	"sprinklers/internal/faultinject"
	"sprinklers/internal/resultcache"
	"sprinklers/internal/stats"
	"sprinklers/internal/trace"
)

// State is a study's lifecycle state.
type State string

// The study lifecycle: running → done | failed | canceled. A failed or
// canceled study may be resubmitted, which starts a fresh run under the
// same id (serving its computed points from the cache).
const (
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// terminal reports whether a state is final.
func (s State) terminal() bool { return s != StateRunning }

// ProgressEvent is one per-point progress notification, in the order
// points are recorded (canonical grid order).
type ProgressEvent struct {
	Done  int                    `json:"done"`
	Total int                    `json:"total"`
	Point experiment.PointResult `json:"point"`
}

// StudyStatus is the wire form of a study's current state.
type StudyStatus struct {
	ID    string `json:"id"`
	Name  string `json:"name,omitempty"`
	State State  `json:"state"`
	Done  int    `json:"done"`
	Total int    `json:"total"`
	Error string `json:"error,omitempty"`
	// Created reports whether this submission started the execution
	// (false: deduplicated onto an existing run or finished study).
	Created bool `json:"created,omitempty"`
}

// Options configures a Server.
type Options struct {
	// CacheDir roots the content-addressed result cache (required).
	CacheDir string
	// Parallelism bounds each study's worker pool; 0 = GOMAXPROCS.
	Parallelism int
	// JobSlots bounds how many replicas of cluster jobs this daemon
	// simulates at once; replicas beyond the bound queue in their handlers
	// (visible as sprinklerd_job_queue_depth on /metrics). 0 = GOMAXPROCS.
	JobSlots int
	// JobDelay, when > 0, stalls every replica a cluster job simulates by
	// this much before simulating — a deterministic chaos knob that turns
	// this daemon into a straggler for scheduler tests
	// (`sprinklerd -chaos-job-delay`).
	JobDelay time.Duration
	// Logger, when set, receives structured events (study/job/worker ids as
	// attributes); nil discards them.
	Logger *slog.Logger
	// Node names this daemon in trace spans and log lines so merged
	// cluster timelines attribute work to the right process; empty defaults
	// to Role, then "sprinklerd".
	Node string
	// Role is the daemon's configured role string ("coordinator", "worker",
	// "standalone", ...) surfaced by /api/v1/version and build_info.
	Role string
	// TraceSpans bounds the in-memory trace journal (a ring: the oldest
	// spans are overwritten, never blocking the hot path). 0 means the
	// default 16384; negative disables tracing entirely.
	TraceSpans int

	// Cluster, when set, makes this daemon a coordinator: every study's
	// points are leased to the cluster's workers instead of simulated in
	// the study's own pool; the study reads only this
	// server's cache. The caller owns the coordinator's health loop
	// (cluster.Coordinator.Start).
	Cluster *cluster.Coordinator
	// Fault, when set, arms this daemon's chaos hooks: scheduled worker
	// crashes abort jobs mid-simulation and, once the plan is Dead, every
	// endpoint severs its connection — the in-process kill -9 the chaos
	// suite drives.
	Fault *faultinject.Plan
	// CacheMaxBytes, when > 0, bounds the result cache on disk: a
	// background sweeper evicts the least recently used entries every
	// SweepInterval (default 1m) whenever the bound is exceeded.
	CacheMaxBytes int64
	SweepInterval time.Duration

	// PeerHTTP overrides the HTTP client used for worker→peer cache reads
	// (tests inject fault transports here); nil means http.DefaultClient.
	PeerHTTP *http.Client
}

// Server owns the daemon state: the result cache, the lifetime counters,
// and the table of known studies. Create one with New, expose it with
// Handler, stop it with Shutdown.
type Server struct {
	cache *resultcache.Store
	par   int
	log   *slog.Logger
	node  string
	role  string

	// journal is the bounded ring of trace spans behind /api/v1/trace;
	// nil when tracing is disabled (every producer is nil-safe).
	journal *trace.Journal

	// Latency histograms exposed on /metrics (log2 buckets, Prometheus
	// text exposition). hDispatch is fed by the cluster coordinator;
	// the rest by this daemon's own study and job paths.
	hDispatch  *stats.Histogram
	hJobExec   *stats.Histogram
	hQueueWait *stats.Histogram
	hCacheGet  *stats.Histogram
	hCachePut  *stats.Histogram

	cluster     *cluster.Coordinator
	fault       *faultinject.Plan
	peerHTTP    *http.Client
	stopSweeper func()

	// counters holds the work that is not attributable to one study: jobs
	// executed for remote coordinators, cluster dispatch accounting. Each
	// study's own work lands on its private counters; TotalCounters folds
	// all three populations (process, live studies, retired studies).
	counters experiment.Counters

	baseCtx    context.Context
	baseCancel context.CancelFunc
	running    sync.WaitGroup

	submitted  atomic.Int64
	deduped    atomic.Int64
	jobsServed atomic.Int64

	// Worker-side load gauges for /metrics: jobSlots is the execution-slot
	// semaphore, queued/inflight count jobs waiting for and holding a slot,
	// simRate is the EWMA of simulated slots/sec (float64 bits).
	jobSlots chan struct{}
	jobDelay time.Duration
	queued   atomic.Int64
	inflight atomic.Int64
	simRate  atomic.Uint64

	mu       sync.Mutex
	studies  map[string]*study
	seq      uint64 // submission order, for terminal-study eviction
	retired  experiment.CounterSnapshot
	draining bool
}

// maxTerminalStudies bounds how many finished/failed/canceled studies the
// daemon keeps in memory for dedup, result serving and SSE replay. The
// content-addressed cache is the durable store, so evicting an old
// terminal study costs a later resubmission nothing but a cache re-read;
// without a bound, a long-lived daemon's study table — each entry holding
// its full result set, trajectory windows included — grows with every
// distinct spec ever submitted.
const maxTerminalStudies = 128

// New opens (or creates) the cache directory and returns a ready Server.
func New(opts Options) (*Server, error) {
	store, err := resultcache.Open(opts.CacheDir)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	slots := opts.JobSlots
	if slots <= 0 {
		slots = runtime.GOMAXPROCS(0)
	}
	node := opts.Node
	if node == "" {
		node = opts.Role
	}
	if node == "" {
		node = "sprinklerd"
	}
	spans := opts.TraceSpans
	if spans == 0 {
		spans = 16384
	}
	s := &Server{
		cache:      store,
		par:        opts.Parallelism,
		node:       node,
		role:       opts.Role,
		journal:    trace.NewJournal(spans),
		hDispatch:  stats.NewHistogram("sprinklerd_dispatch_latency_seconds", "Latency of successful cluster dispatches, per lease (request to trailer)."),
		hJobExec:   stats.NewHistogram("sprinklerd_job_exec_seconds", "Wall time of replica simulations executed for cluster jobs."),
		hQueueWait: stats.NewHistogram("sprinklerd_job_queue_wait_seconds", "Time replicas of cluster jobs wait for an execution slot before simulating."),
		hCacheGet:  stats.NewHistogram("sprinklerd_cache_get_seconds", "Latency of result-cache reads on the study and job paths."),
		hCachePut:  stats.NewHistogram("sprinklerd_cache_put_seconds", "Latency of result-cache writes (CAS stores)."),
		cluster:    opts.Cluster,
		fault:      opts.Fault,
		peerHTTP:   opts.PeerHTTP,
		jobSlots:   make(chan struct{}, slots),
		jobDelay:   opts.JobDelay,
		baseCtx:    ctx,
		baseCancel: cancel,
		studies:    map[string]*study{},
	}
	s.log = opts.Logger
	if s.log == nil {
		s.log = slog.New(slog.DiscardHandler)
	}
	s.log = s.log.With("node", node)
	if s.cluster != nil {
		// The coordinator's dispatch/retry/fallback accounting lands on the
		// daemon's lifetime counters and histograms, so /metrics tells the
		// whole story; its log lines carry the same node attribute.
		s.cluster.UseCounters(&s.counters)
		s.cluster.UseDispatchHist(s.hDispatch)
		s.cluster.UseLogger(s.log)
	}
	if opts.CacheMaxBytes > 0 {
		s.stopSweeper = store.StartSweeper(opts.SweepInterval, opts.CacheMaxBytes,
			func(err error) { s.log.Warn("cache sweep failed", "err", err) })
		s.log.Info("cache bound armed", "max_bytes", opts.CacheMaxBytes)
	}
	return s, nil
}

// Counters returns the server's process-lifetime counters (work not
// attributable to one study; see TotalCounters for the daemon-wide view).
func (s *Server) Counters() *experiment.Counters { return &s.counters }

// TotalCounters folds every counter population into one daemon-wide
// snapshot: the process counters (cluster dispatch, jobs served for remote
// coordinators), every live study's private counters, and the counters of
// studies already evicted or replaced (retired). This is the series the
// /metrics endpoint exports, so totals are continuous across study
// eviction.
func (s *Server) TotalCounters() experiment.CounterSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	total := s.counters.Snapshot().Add(s.retired)
	for _, st := range s.studies {
		total = total.Add(st.counters.Snapshot())
	}
	return total
}

// StudyID is the content address of a study: the hash of its normalized
// spec's canonical JSON, truncated to 16 hex characters (64 bits — ample
// for a study table, and short enough to paste into a URL).
func StudyID(spec experiment.Spec) string {
	b, err := json.Marshal(spec.WithDefaults())
	if err != nil {
		// A validated spec always marshals; an unvalidated one that does
		// not will fail validation in Submit before the id is ever used.
		return "unmarshalable"
	}
	return fmt.Sprintf("%x", sha256.Sum256(b))[:16]
}

// ErrDraining is returned by Submit once Shutdown has begun.
var ErrDraining = errors.New("service: server is draining")

// ValidationError wraps a spec rejection so the HTTP layer can map it to
// 400 instead of 500.
type ValidationError struct{ Err error }

func (e ValidationError) Error() string { return e.Err.Error() }
func (e ValidationError) Unwrap() error { return e.Err }

// Submit registers spec for execution and returns its study. Submissions
// deduplicate on study id: while a study is running — or once it has
// finished — submitting the same spec joins the existing execution instead
// of starting another, so two concurrent identical submissions share one
// run. A failed or canceled study is restarted by resubmission (re-reading
// its cached points). The returned status's Created field reports whether
// this call started an execution.
func (s *Server) Submit(spec experiment.Spec) (StudyStatus, error) {
	norm := spec.WithDefaults()
	if err := norm.Validate(); err != nil {
		return StudyStatus{}, ValidationError{err}
	}
	id := StudyID(norm)

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return StudyStatus{}, ErrDraining
	}
	if st, ok := s.studies[id]; ok {
		if state := st.Status().State; state == StateRunning || state == StateDone {
			s.mu.Unlock()
			s.deduped.Add(1)
			return st.Status(), nil
		}
		// The failed/canceled entry is about to be replaced by a fresh run;
		// retire its counters so the daemon-wide totals keep its work.
		s.retired = s.retired.Add(st.counters.Snapshot())
	}
	st := newStudy(id, norm)
	s.seq++
	st.seq = s.seq
	s.studies[id] = st
	s.evictTerminalLocked()
	ctx, cancel := context.WithCancel(s.baseCtx)
	st.cancel = cancel
	s.running.Add(1)
	s.mu.Unlock()

	s.submitted.Add(1)
	s.log.Info("study submitted", "study", id, "name", norm.Name, "points", norm.NumPoints())
	s.traceCtx(id).Event("submit", "points", fmt.Sprint(norm.NumPoints()))
	go s.run(ctx, st)

	status := st.Status()
	status.Created = true
	return status, nil
}

// traceCtx returns the server's trace context for one study: record into
// the daemon journal, trace id == study id, spans attributed to this
// node. Disabled (zero value) when the journal is off, so no typed-nil
// Recorder ever reports Enabled.
func (s *Server) traceCtx(study string) trace.SpanContext {
	if s.journal == nil {
		return trace.SpanContext{}
	}
	return trace.SpanContext{J: s.journal, Trace: study, Study: study, Node: s.node}
}

// run executes one study to a terminal state. Every computed point is
// stored in the content-addressed cache as it is recorded, so the cache is
// the study's durable state: a run cut short by a cancel, a failure or a
// restart is resumed by resubmitting the spec, and the rerun proves itself
// against the cache, point by point.
func (s *Server) run(ctx context.Context, st *study) {
	defer s.running.Done()
	defer st.cancel()
	cfg := experiment.StudyConfig{
		Parallelism: s.par,
		Cache:       timedCache{s.cache, s.hCacheGet, s.hCachePut},
		Counters:    &st.counters,
		Progress: func(_, total int, r experiment.PointResult) {
			st.progress(total, r)
		},
	}
	if s.cluster != nil {
		// Coordinator mode: points are leased to workers (falling back
		// locally when the fleet is gone), each worker reusing a replica
		// from its own store or a sibling's before it simulates. The study
		// reads only this server's store. Grid ordering, caching, and
		// aggregation are untouched — which is exactly why a cluster run is
		// byte-identical to a single-node run.
		cfg.RangeRunner = s.cluster.RunReplicas
	}
	// The study root span: every dispatch, simulation and store of this
	// run parents back to it, across nodes.
	sp := s.traceCtx(st.id).Start("study")
	sp.Attr("name", st.spec.Name)
	ctx = sp.Context(ctx)
	_, err := experiment.RunStudy(ctx, st.spec, cfg)
	sp.End()
	st.finish(err)
	status := st.Status()
	s.log.Info("study finished", "study", st.id, "state", string(status.State),
		"done", status.Done, "total", status.Total)
}

// evictTerminalLocked drops the oldest terminal studies once more than
// maxTerminalStudies of them are retained. Running studies are never
// evicted. Call with s.mu held.
func (s *Server) evictTerminalLocked() {
	type victim struct {
		id  string
		seq uint64
	}
	var terminals []victim
	for id, st := range s.studies {
		if st.Status().State.terminal() {
			terminals = append(terminals, victim{id, st.seq})
		}
	}
	if len(terminals) <= maxTerminalStudies {
		return
	}
	sort.Slice(terminals, func(i, j int) bool { return terminals[i].seq < terminals[j].seq })
	for _, v := range terminals[:len(terminals)-maxTerminalStudies] {
		// Fold the evicted study's work into the retired bucket so the
		// daemon-wide counters never move backwards.
		s.retired = s.retired.Add(s.studies[v.id].counters.Snapshot())
		delete(s.studies, v.id)
	}
}

// lookup returns the study with the given id.
func (s *Server) lookup(id string) (*study, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.studies[id]
	return st, ok
}

// List returns the status of every known study, newest submission order
// not guaranteed (map order); callers sort as needed.
func (s *Server) List() []StudyStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]StudyStatus, 0, len(s.studies))
	for _, st := range s.studies {
		out = append(out, st.Status())
	}
	return out
}

// RunningStudies counts studies currently executing.
func (s *Server) RunningStudies() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, st := range s.studies {
		if !st.Status().State.terminal() {
			n++
		}
	}
	return n
}

// Shutdown drains the server: new submissions are refused, every running
// study's context is canceled — each finishes as canceled, its computed
// points already in the cache, resumable by resubmission — and Shutdown
// returns when all studies have stopped or ctx expires. A completed drain closes
// the result cache, releasing its directory for the next daemon.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	if s.stopSweeper != nil {
		s.stopSweeper()
	}
	s.baseCancel()
	done := make(chan struct{})
	go func() {
		s.running.Wait()
		close(done)
	}()
	select {
	case <-done:
		return s.cache.Close()
	case <-ctx.Done():
		// The cache stays open: a study still running may yet write to it,
		// and the process is exiting anyway.
		return fmt.Errorf("service: shutdown grace period expired: %w", ctx.Err())
	}
}

// study is one tracked study execution.
type study struct {
	id         string
	spec       experiment.Spec
	seedPoints int    // the seed grid's size: the total before any point is recorded
	seq        uint64 // submission order (Server.seq), for eviction
	cancel     context.CancelFunc

	// counters is the study's private work/cache accounting, surfaced per
	// study by /api/v1/perf and folded into the daemon totals.
	counters experiment.Counters

	mu      sync.Mutex
	notify  chan struct{} // closed and replaced on every update
	state   State
	results []experiment.PointResult // recorded points, in grid order
	// totals[i] is the runner's total when results[i] was recorded; it
	// grows past the seed grid while an adaptive study refines.
	totals []int
	errMsg string
}

func newStudy(id string, spec experiment.Spec) *study {
	return &study{
		id:         id,
		spec:       spec,
		seedPoints: spec.NumPoints(),
		notify:     make(chan struct{}),
		state:      StateRunning,
	}
}

// Spec returns the study's normalized spec.
func (st *study) Spec() experiment.Spec { return st.spec }

// broadcast wakes every waiter; call with st.mu held.
func (st *study) broadcast() {
	close(st.notify)
	st.notify = make(chan struct{})
}

// progress records one point. RunStudy reports every point it records,
// strictly in grid order, so results is at every moment the recorded
// prefix — Results() serves it while the study runs, a canceled joiner
// still gets everything recorded so far, and once the study is done it is
// RunStudy's return value. Adaptive studies insert points as they refine:
// the runner's total is authoritative, the spec's NumPoints is only the
// seed grid.
func (st *study) progress(total int, r experiment.PointResult) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.results = append(st.results, r)
	st.totals = append(st.totals, total)
	st.broadcast()
}

// finish moves the study to its terminal state.
func (st *study) finish(err error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	switch {
	case err == nil:
		st.state = StateDone
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		st.state = StateCanceled
		st.errMsg = err.Error()
	default:
		st.state = StateFailed
		st.errMsg = err.Error()
	}
	st.broadcast()
}

// Status returns the study's current status snapshot.
func (st *study) Status() StudyStatus {
	st.mu.Lock()
	defer st.mu.Unlock()
	total := st.seedPoints
	if n := len(st.totals); n > 0 {
		total = st.totals[n-1]
	}
	return StudyStatus{
		ID:    st.id,
		Name:  st.spec.Name,
		State: st.state,
		Done:  len(st.results),
		Total: total,
		Error: st.errMsg,
	}
}

// Results returns the study's results so far (the recorded grid-order
// prefix; complete when the state is done) along with the state. The
// returned slice is a stable snapshot: progress appends only past its
// length.
func (st *study) Results() (State, []experiment.PointResult) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.state, st.results[:len(st.results):len(st.results)]
}

// EventsSince returns the progress events after index from, plus the
// current state and a channel that is closed on the next update — the
// blocking primitive behind both the SSE stream and long-polling waiters.
// Event i is rebuilt from results[i] and totals[i], so a replay — live or
// after the study ends — is exactly the sequence streamed as it ran.
func (st *study) EventsSince(from int) (events []ProgressEvent, state State, updated <-chan struct{}) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for i := max(from, 0); i < len(st.results); i++ {
		events = append(events, ProgressEvent{Done: i + 1, Total: st.totals[i], Point: st.results[i]})
	}
	return events, st.state, st.notify
}

// Wait blocks until the study reaches a terminal state or ctx is done.
func (st *study) Wait(ctx context.Context) State {
	for {
		_, state, updated := st.EventsSince(0)
		if state.terminal() {
			return state
		}
		select {
		case <-updated:
		case <-ctx.Done():
			_, state, _ := st.EventsSince(0)
			return state
		}
	}
}

// timedCache wraps a PointCache so every read and write lands in the
// daemon's cache latency histograms. Pass-through otherwise, including
// the optional quarantine capability of the wrapped store.
type timedCache struct {
	inner    experiment.PointCache
	get, put *stats.Histogram
}

func (t timedCache) Get(key string) ([]byte, bool, error) {
	start := time.Now()
	b, ok, err := t.inner.Get(key)
	t.get.Observe(time.Since(start))
	return b, ok, err
}

func (t timedCache) Put(key string, val []byte) error {
	start := time.Now()
	err := t.inner.Put(key, val)
	t.put.Observe(time.Since(start))
	return err
}

func (t timedCache) Quarantine(key string) error {
	if q, ok := t.inner.(experiment.Quarantiner); ok {
		return q.Quarantine(key)
	}
	return nil
}
