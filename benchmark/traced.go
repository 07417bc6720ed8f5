package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sprinklers/internal/experiment"
	"sprinklers/internal/service"
	"sprinklers/internal/trace"
)

// spanLog keeps every span of a traced invocation in memory until it ends.
// Spans are recorded only here, in the benchmark, around calls into the
// product's public functions; the spans the daemons already record are read
// back through Client.Trace and adopted.
type spanLog struct{ buf *trace.Buffer }

func newSpanLog() *spanLog { return &spanLog{buf: trace.NewBuffer()} }

// study is the span context of one study: its spans share the id.
func (l *spanLog) study(id string) trace.SpanContext {
	return trace.SpanContext{J: l.buf, Trace: id, Study: id, Node: "bench"}
}

func (l *spanLog) adopt(spans []trace.Span) {
	for _, sp := range spans {
		l.buf.Record(sp)
	}
}

func (l *spanLog) writeChrome(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteChromeTrace(f, l.buf.Spans()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedPass produces a workload's per-layer numbers. It first measures a
// short pass with tracing off (the base of bench.trace_overhead_pct), then
// the instrumented studies, and for the engine workloads the slot-level
// decomposition. ok is false when an instrumented run did not reproduce
// the undecorated one.
func tracedPass(ctx context.Context, w workload, cfg passConfig, log *spanLog, out io.Writer) (*sampled, metricSet, bool, error) {
	m := metricSet{}
	off := cfg
	off.seconds, off.minRounds = cfg.seconds*0.3, 1
	ref, err := measure(ctx, w, off, w.par, fleetOpts{}, nil, plainRun)
	if err != nil {
		return nil, nil, false, err
	}
	one := cfg
	one.seconds, one.minRounds, one.refs = cfg.seconds*0.2, 1, ref.refs

	var prep []float64
	for _, spec := range w.specs(cfg.seed, cfg.scale) {
		sp := log.study(spec.Name).Start("spec-prepare")
		t0 := time.Now()
		norm := spec.WithDefaults()
		if err := norm.Validate(); err != nil {
			return nil, nil, false, err
		}
		norm.Points()
		prep = append(prep, float64(time.Since(t0))/1e3)
		sp.End()
	}
	m["experiment.spec_prepare_us"] = median(prep)

	ok := true
	var traced *sampled
	switch w.kind {
	case kindRemote, kindCluster:
		traced, err = fleetTrace(ctx, w, one, log, ref, m)
	case kindEngine:
		if ok, err = engineTrace(w, cfg, log, m, out); err != nil {
			return nil, nil, false, err
		}
		fallthrough
	default:
		traced, err = studyTrace(ctx, w, one, log, m)
	}
	if err != nil {
		return nil, nil, false, err
	}
	m["bench.trace_overhead_pct"] = 100 * div(median(traced.walls)-median(ref.walls), median(ref.walls))
	fmt.Fprintf(out, "tracing off   study_wall_s %s\n", timing(ref.walls, "s"))

	// A workload that dispatches nothing reads 0 on the cluster counters.
	for name, field := range workCounters {
		m[name] = traced.perStudy(field)
	}
	m["experiment.checkpoint_bytes"] = float64(traced.ckptBytes)
	traced.attempted += ref.attempted
	traced.failed += ref.failed
	return traced, m, ok, nil
}

// workCounters are the per-layer metrics read straight off the product's
// own work counters, per timed study.
var workCounters = map[string]func(experiment.CounterSnapshot) int64{
	"experiment.cache_hits":        func(c experiment.CounterSnapshot) int64 { return c.CacheHits },
	"experiment.cache_misses":      func(c experiment.CounterSnapshot) int64 { return c.CacheMisses },
	"experiment.points_computed":   func(c experiment.CounterSnapshot) int64 { return c.PointsComputed },
	"experiment.replicas_computed": func(c experiment.CounterSnapshot) int64 { return c.ReplicasComputed },
	"experiment.slots_simulated":   slotsSimulated,
	"cluster.jobs_dispatched":      func(c experiment.CounterSnapshot) int64 { return c.JobsDispatched },
	"cluster.jobs_retried":         func(c experiment.CounterSnapshot) int64 { return c.JobsRetried },
	"cluster.jobs_redispatched":    func(c experiment.CounterSnapshot) int64 { return c.JobsRedispatched },
	"cluster.local_fallbacks":      func(c experiment.CounterSnapshot) int64 { return c.LocalFallbacks },
	"cluster.jobs_stolen":          func(c experiment.CounterSnapshot) int64 { return c.JobsStolen },
	"cluster.speculative_wasted":   func(c experiment.CounterSnapshot) int64 { return c.SpeculativeWasted },
}

// engineTrace decomposes the workload's representative points — every
// fig6-n32 point at load 0.9, both sprinklers-n128 points — into layers.
func engineTrace(w workload, cfg passConfig, log *spanLog, m metricSet, out io.Writer) (bool, error) {
	spec := w.specs(cfg.seed, cfg.scale)[0].WithDefaults()
	sc := log.study(spec.Name + "/engine")
	timer := clockPairNs()
	all := engineTotals{timerNs: timer}
	byLayer := map[string]*engineTotals{}
	ok := true
	profileOne := func(alg experiment.Algorithm, kind experiment.TrafficKind, par int) (*profile, error) {
		pc := experiment.Config{
			N: spec.Sizes[0], Traffic: kind, Slots: spec.Slots, Warmup: spec.Warmup, Seed: spec.Seed,
		}
		p, err := profilePoint(sc, alg, pc, 0.9, par)
		if err != nil {
			if p == nil {
				return nil, err
			}
			// The decorated run diverged from RunPoint: the pass is wrong,
			// but the remaining numbers are still worth printing.
			fmt.Fprintln(out, "ENGINE DECOMPOSITION MISMATCH:", err)
			ok = false
		}
		return p, nil
	}
	for _, a := range spec.Algorithms {
		layer := layerOf(string(a.Name))
		for _, tk := range spec.Traffic {
			p, err := profileOne(a.Name, tk.Name, 1)
			if err != nil {
				return false, err
			}
			if byLayer[layer] == nil {
				byLayer[layer] = &engineTotals{timerNs: timer}
			}
			byLayer[layer].add(p)
			all.add(p)
		}
	}
	for layer, t := range byLayer {
		m[layer+".new_ms"] = t.newNs / 1e6 / float64(t.points)
		m[layer+".arrive_ns_per_pkt"] = max(0, div(t.arriveSelfNs(), t.arrives))
		m[layer+".step_ns_per_slot"] = max(0, div(t.stepSelfNs(), t.slots))
		m[layer+".allocs_per_slot"] = div(t.mallocs, t.slots)
	}
	m["traffic.next_ns_per_slot"] = max(0, div(all.nextSelfNs(), all.slots))
	m["traffic.pkts_per_slot"] = div(all.arrives, all.slots)
	m["traffic.pattern_ms"] = all.patternNs / 1e6 / float64(all.points)
	m["stats.observe_ns_per_pkt"] = max(0, div(all.observeSelfNs(), all.observes))
	m["sim.loop_self_ns_per_slot"] = max(0, div(all.loopSelfNs(), all.slots))
	m["sim.run_ns_per_cell_slot"] = div(all.runNs-all.clockNs(), all.cellSlots)
	fmt.Fprintf(out, "engine        %d points decomposed; clock pair %.1f ns; layer self times are %.3f of the undecorated runs\n",
		all.points, timer, all.accountedShare())

	if len(spec.Algorithms) == 1 {
		// The core-only, memory-bound workload: what the switch holds live,
		// and what sharding its slot loop over two workers buys.
		core := byLayer["core"]
		m["core.live_heap_mb"] = core.liveB / 1e6 / float64(core.points)
		p2, err := profileOne(experiment.Sprinklers, experiment.UniformTraffic, 2)
		if err != nil {
			return false, err
		}
		t2 := engineTotals{timerNs: timer}
		t2.add(p2)
		m["core.step_ns_per_slot_p2"] = max(0, div(t2.stepSelfNs(), t2.slots))
		m["core.p2_speedup"] = div(m["core.step_ns_per_slot"], m["core.step_ns_per_slot_p2"])
	}
	return ok, nil
}

// studyTracer times what experiment.RunStudy calls out to: every replica
// job, every cache read and write, every recorded point.
type studyTracer struct {
	log *spanLog
	n   int
	cur trace.SpanContext // the running study's root span

	mu     sync.Mutex // jobs of one study run concurrently
	jobS   float64
	jobAlg map[experiment.Algorithm]float64

	// Cache calls and progress come from RunStudy's own goroutine.
	putUs, hitUs, missUs []float64
	entryBytes           float64
}

func (t *studyTracer) prepare(r *round) {
	if le, ok := r.env.(*localEnv); ok {
		le.decorate = t.decorate
	}
}

func (t *studyTracer) decorate(cfg *experiment.StudyConfig) {
	ctr := cfg.Counters
	cfg.ReplicaRunner = func(ctx context.Context, spec experiment.Spec, key experiment.PointKey, rep int) (experiment.Point, error) {
		sp := t.cur.Start("job")
		sp.SetJob(key.String(), rep)
		t0 := time.Now()
		p, err := experiment.RunReplicaJob(ctx, spec, key, rep, 0, ctr, nil)
		d := time.Since(t0).Seconds()
		sp.End()
		t.mu.Lock()
		t.jobS += d
		t.jobAlg[key.Algorithm] += d
		t.mu.Unlock()
		return p, err
	}
	if cfg.Cache != nil {
		cfg.Cache = timedCache{cfg.Cache, t}
	}
	cfg.Progress = func(int, int, experiment.PointResult) { t.cur.Event("recorded") }
}

func (t *studyTracer) run(ctx context.Context, e env, spec experiment.Spec) ([]experiment.PointResult, error) {
	t.n++
	sp := t.log.study(fmt.Sprintf("%s/%d", spec.Name, t.n)).Start("study")
	t.cur = sp.SpanContext()
	res, err := e.run(ctx, spec)
	sp.End()
	return res, err
}

// timedCache times the result cache from the runner's side of the
// PointCache interface.
type timedCache struct {
	inner experiment.PointCache
	t     *studyTracer
}

func (c timedCache) Get(key string) ([]byte, bool, error) {
	sp := c.t.cur.Start("cache-get")
	t0 := time.Now()
	b, ok, err := c.inner.Get(key)
	us := float64(time.Since(t0)) / 1e3
	sp.End()
	if ok {
		c.t.hitUs = append(c.t.hitUs, us)
		c.t.entryBytes += float64(len(b))
	} else {
		c.t.missUs = append(c.t.missUs, us)
	}
	return b, ok, err
}

func (c timedCache) Put(key string, val []byte) error {
	sp := c.t.cur.Start("cache-put")
	t0 := time.Now()
	err := c.inner.Put(key, val)
	c.t.putUs = append(c.t.putUs, float64(time.Since(t0))/1e3)
	sp.End()
	c.t.entryBytes += float64(len(val))
	return err
}

// studyTrace runs the workload's studies instrumented, once with one pool
// worker (wall minus job time is then the runner's own time) and once with
// two (job time over twice the wall is how well the pool was kept busy).
func studyTrace(ctx context.Context, w workload, cfg passConfig, log *spanLog, m metricSet) (*sampled, error) {
	var own *sampled
	extraAttempted, extraFailed := 0, 0
	for _, par := range []int{1, 2} {
		t := &studyTracer{log: log, jobAlg: map[experiment.Algorithm]float64{}}
		s, err := measure(ctx, w, cfg, par, fleetOpts{}, t.prepare, t.run)
		if err != nil {
			return nil, err
		}
		cfg.refs = s.refs
		wall := 0.0
		for _, v := range s.walls {
			wall += v
		}
		if par == 1 {
			m["experiment.runner_self_ms_per_point"] = 1e3 * div(wall-t.jobS, float64(s.attempted))
		} else {
			m["experiment.pool_efficiency"] = div(t.jobS, 2*wall)
		}
		if par != w.par {
			extraAttempted += s.attempted
			extraFailed += s.failed
			continue
		}
		own = s
		studies := float64(s.studies())
		m["experiment.sum_job_s"] = t.jobS / studies
		for alg, d := range t.jobAlg {
			if layer := layerOf(string(alg)); layer != "" {
				m[layer+".job_share_pct"] = 100 * div(d, t.jobS)
			}
		}
		m["resultcache.put_us_p50"] = median(t.putUs)
		m["resultcache.put_us_p99"] = percentile(t.putUs, 99)
		m["resultcache.get_hit_us_p50"] = median(t.hitUs)
		m["resultcache.get_hit_us_p99"] = percentile(t.hitUs, 99)
		m["resultcache.get_miss_us_p50"] = median(t.missUs)
		m["resultcache.puts"] = float64(len(t.putUs)) / studies
		m["resultcache.gets"] = float64(len(t.hitUs)+len(t.missUs)) / studies
		m["resultcache.bytes_per_entry"] = div(t.entryBytes, float64(len(t.putUs)+len(t.hitUs)))
	}
	own.attempted += extraAttempted
	own.failed += extraFailed
	return own, nil
}

// fleetTracer times the client's three calls, the daemons' handlers from
// outside, and reads the spans the daemons recorded themselves.
type fleetTracer struct {
	log     *spanLog
	journal bool // the daemons keep a trace journal this round

	// timing is set while one of the timed studies runs: the set-up's
	// warm-up study goes through the same handlers and is not counted.
	timing   atomic.Bool
	requests atomic.Int64
	mu       sync.Mutex // handlers run concurrently
	handler  []float64  // ms per POST /api/v1/jobs, on the workers

	lastID   string
	lastWall time.Duration
	events   int

	submit, first, fetch, traceFetch, spans []float64
	overhead, efficiency, balance           []float64
	dropped                                 int64
}

// wrap counts a node's requests and times its job handler. The health
// probes and the benchmark's own trace fetches are passed through
// uncounted, so the count is the product's and repeats exactly.
func (t *fleetTracer) wrap(node string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		switch {
		case !t.timing.Load() || r.URL.Path == "/healthz" || strings.HasPrefix(r.URL.Path, "/api/v1/trace/"):
			h.ServeHTTP(rw, r)
		case r.Method == http.MethodPost && r.URL.Path == "/api/v1/jobs":
			t.requests.Add(1)
			t0 := time.Now()
			h.ServeHTTP(rw, r)
			ms := float64(time.Since(t0)) / 1e6
			t.mu.Lock()
			t.handler = append(t.handler, ms)
			t.mu.Unlock()
		default:
			t.requests.Add(1)
			h.ServeHTTP(rw, r)
		}
	})
}

// prepare has each study's trace read right after its timed window.
func (t *fleetTracer) prepare(r *round) {
	fe := r.env.(*fleetEnv)
	fe.afterStudy = func() { t.collect(fe.client) }
}

// run is service.Client.Run's round trip — submit, stream progress, fetch
// the results — with a clock on each call.
func (t *fleetTracer) run(ctx context.Context, e env, spec experiment.Spec) ([]experiment.PointResult, error) {
	c := e.(*fleetEnv).client
	root := t.log.study(service.StudyID(spec)).Start("client.Run")
	defer root.End()
	sc := root.SpanContext()
	t.timing.Store(true)
	t0 := time.Now()
	defer func() {
		t.lastWall = time.Since(t0)
		t.timing.Store(false)
	}()

	sp := sc.Start("client.Submit")
	st, err := c.Submit(ctx, spec)
	sp.End()
	if err != nil {
		return nil, err
	}
	t.lastID = st.ID
	t.submit = append(t.submit, float64(time.Since(t0))/1e6)

	seen := 0
	sp = sc.Start("client.Stream")
	state, err := c.Stream(ctx, st.ID, 0, func(service.ProgressEvent) {
		if seen == 0 {
			t.first = append(t.first, float64(time.Since(t0))/1e6)
			sc.Event("first-event")
		}
		seen++
	})
	sp.End()
	t.events += seen
	if err != nil {
		return nil, err
	}

	t1 := time.Now()
	sp = sc.Start("client.Results")
	_, res, err := c.Results(ctx, st.ID, false)
	sp.End()
	t.fetch = append(t.fetch, float64(time.Since(t1))/1e6)
	if err == nil && state != service.StateDone {
		err = fmt.Errorf("study %s ended %s", st.ID, state)
	}
	return res, err
}

// collect reads the study's merged timeline from the daemon and takes the
// per-job numbers from the spans the product itself recorded: dispatch on
// the coordinator, simulate on the worker that ran the job.
func (t *fleetTracer) collect(c *service.Client) {
	if !t.journal || t.lastID == "" {
		return
	}
	t0 := time.Now()
	tr, err := c.Trace(context.Background(), t.lastID)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: reading trace:", err)
		return
	}
	t.traceFetch = append(t.traceFetch, float64(time.Since(t0))/1e6)
	t.spans = append(t.spans, float64(len(tr.Spans)))
	t.dropped = tr.Dropped
	t.log.adopt(tr.Spans)

	type job struct {
		name string
		rep  int
	}
	dispatch := map[job]int64{}
	simulate := map[job]int64{}
	perNode := map[string]float64{}
	var simNs int64
	for _, sp := range tr.Spans {
		switch sp.Name {
		case "dispatch":
			dispatch[job{sp.Job, sp.Rep}] = sp.Dur
		case "simulate":
			simulate[job{sp.Job, sp.Rep}] = sp.Dur
			simNs += sp.Dur
			perNode[sp.Node]++
		}
	}
	for j, d := range dispatch {
		if s, ok := simulate[j]; ok {
			t.overhead = append(t.overhead, float64(d-s)/1e6)
		}
	}
	t.efficiency = append(t.efficiency, div(float64(simNs), 2*float64(t.lastWall)))
	if len(perNode) > 1 {
		lo, hi := -1.0, 0.0
		for _, n := range perNode {
			if lo < 0 || n < lo {
				lo = n
			}
			hi = max(hi, n)
		}
		t.balance = append(t.balance, div(lo, hi))
	}
}

// fleetTrace runs the workload's studies through instrumented daemons
// twice: with the daemons' trace journal on (the default) and with it off,
// which prices the journal.
func fleetTrace(ctx context.Context, w workload, cfg passConfig, log *spanLog, ref *sampled, m metricSet) (*sampled, error) {
	on := &fleetTracer{log: log, journal: true}
	traced, err := measure(ctx, w, cfg, w.par, fleetOpts{wrap: on.wrap}, on.prepare, on.run)
	if err != nil {
		return nil, err
	}
	off := &fleetTracer{log: log}
	quiet, err := measure(ctx, w, cfg, w.par, fleetOpts{traceSpans: -1, wrap: off.wrap}, off.prepare, off.run)
	if err != nil {
		return nil, err
	}
	// The same specs run locally against an empty cache: what the daemon's
	// HTTP and JSON add per point is the difference to it.
	local, _ := lookupWorkload("grid-cold")
	base, err := measure(ctx, local, cfg, local.par, fleetOpts{}, nil, plainRun)
	if err != nil {
		return nil, err
	}
	studies := float64(traced.studies())
	points := float64(traced.attempted) / studies
	m["service.submit_ms_p50"] = median(on.submit)
	m["service.first_event_ms_p50"] = median(on.first)
	m["service.results_fetch_ms_p50"] = median(on.fetch)
	m["service.overhead_ms_per_point"] = 1e3 * div(median(ref.walls)-median(base.walls), points)
	m["service.job_handler_ms_p50"] = median(on.handler)
	m["service.job_handler_ms_p99"] = percentile(on.handler, 99)
	m["service.http_requests"] = float64(on.requests.Load()) / studies
	m["service.events_streamed"] = float64(on.events) / studies
	m["trace.spans_per_study"] = median(on.spans)
	m["trace.spans_dropped"] = float64(on.dropped)
	m["trace.fetch_ms"] = median(on.traceFetch)
	m["trace.journal_overhead_pct"] = 100 * div(median(traced.walls)-median(quiet.walls), median(quiet.walls))
	if w.kind == kindCluster {
		m["cluster.dispatch_overhead_ms_p50"] = median(on.overhead)
		m["cluster.dispatch_overhead_ms_p99"] = percentile(on.overhead, 99)
		m["cluster.efficiency"] = median(on.efficiency)
		m["cluster.worker_balance"] = median(on.balance)
	}
	traced.attempted += quiet.attempted + base.attempted
	traced.failed += quiet.failed + base.failed
	return traced, nil
}
