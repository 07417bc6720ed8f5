package experiment

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"

	"sprinklers/internal/bound"
	"sprinklers/internal/markov"
	"sprinklers/internal/resultcache"
	"sprinklers/internal/sim"
	"sprinklers/internal/stats"
	"sprinklers/internal/trace"
)

// PointResult is the aggregate of every replica run at one grid point: the
// batch-means estimate (mean over replica means) with a 95% Student-t
// confidence half-width for delay and throughput. For analytic study kinds
// the analytic value lands in MeanDelay (markov) or the overload strings
// (bound). One PointResult is one line of a study's JSONL results file.
type PointResult struct {
	PointKey
	Replicas int `json:"replicas,omitempty"`
	// MeanDelay is the mean over replicas of the per-replica mean delay
	// (slots); DelayCI95 is the 95% confidence half-width (0 with a single
	// replica).
	MeanDelay float64 `json:"mean_delay"`
	DelayCI95 float64 `json:"delay_ci95,omitempty"`
	// P99Delay and MaxDelay aggregate the per-replica tail statistics
	// (mean of p99 estimates, max of maxima).
	P99Delay float64 `json:"p99_delay,omitempty"`
	MaxDelay float64 `json:"max_delay,omitempty"`
	// Throughput is delivered/offered, averaged over replicas, with its
	// 95% confidence half-width.
	Throughput     float64 `json:"throughput,omitempty"`
	ThroughputCI95 float64 `json:"throughput_ci95,omitempty"`
	// Reordered and Delivered are totals across replicas.
	Reordered int64 `json:"reordered,omitempty"`
	Delivered int64 `json:"delivered,omitempty"`
	// QueueOverload and SwitchOverload are the Table 1 bounds, rendered in
	// the log domain (bound studies only; values like "3.10e-031" stay
	// exact below float64 underflow).
	QueueOverload  string `json:"queue_overload,omitempty"`
	SwitchOverload string `json:"switch_overload,omitempty"`
	// Windows is the replica-aggregated per-window time series (windowed
	// studies only): window means of the per-replica means for delay, p99
	// and backlog, totals for offered/delivered/reordered, and throughput
	// recomputed from the totals.
	Windows []stats.WindowPoint `json:"windows,omitempty"`
	// TwinDelay, TwinDivergence and RefineRound are set on the points an
	// adaptive study inserted by refinement (RefineRound >= 1): the
	// calibrated analytic-twin prediction at the point, its relative
	// disagreement with the simulated MeanDelay, and the refinement round
	// that inserted the point. Seed-grid points carry none of them — their
	// lines are written before the twin's scale is calibrated.
	TwinDelay      float64 `json:"twin_delay,omitempty"`
	TwinDivergence float64 `json:"twin_divergence,omitempty"`
	RefineRound    int     `json:"refine_round,omitempty"`
}

// ErrHalted is returned by RunStudy when StudyConfig.HaltAfterPoints stopped
// the study early; the checkpoint file holds everything recorded so far.
var ErrHalted = errors.New("experiment: study halted at checkpoint limit")

// StudyConfig controls how a study executes (everything here is runtime
// policy, deliberately outside the Spec: the same study can run anywhere).
type StudyConfig struct {
	// Parallelism is the number of pool workers, each running one job at a
	// time; 0 = GOMAXPROCS. A job is one (point, replica) of a dense sim
	// study, one whole point of an adaptive study (its replicas run in
	// order) and one point of an analytic study.
	Parallelism int
	// ResultsPath, when non-empty, is the JSONL checkpoint file. Finished
	// points are appended in canonical grid order as they complete; if the
	// file already holds a prefix of this spec's points, those points are
	// loaded instead of re-simulated and the run continues after them. A
	// partial trailing line (from a killed run) is truncated away.
	ResultsPath string
	// Progress, when set, is called after each point is recorded (including
	// points loaded from the checkpoint or served from the cache), with
	// done counting recorded points out of total.
	Progress func(done, total int, r PointResult)
	// HaltAfterPoints > 0 stops the study cleanly after recording that
	// many NEW points, returning ErrHalted. It exists to make "kill the
	// sweep mid-run" deterministic in tests and CI.
	HaltAfterPoints int
	// Cache, when non-nil, is the content-addressed result cache (sim
	// studies only; analytic points cost less than a disk read). Every
	// point is looked up by its PointIdentity key before its batch schedules
	// any simulation, and every freshly computed point is stored back — so
	// overlapping studies share points and resubmitting a fully cached
	// spec executes zero simulation slots.
	Cache PointCache
	// Counters, when set, accumulates cache and work metrics across
	// studies (the daemon scrapes one process-wide Counters at /metrics).
	Counters *Counters
	// ReplicaRunner, when set, delegates each (point, replica) simulation
	// job instead of running it in-process — the hook cluster mode hangs
	// off: the coordinator's runner dispatches the job to a worker daemon
	// under a lease, retries transient failures, and falls back to local
	// execution with every worker down. Everything else (grid order,
	// checkpointing, the cache pre-pass, aggregation, the Put of the
	// aggregated point) is unchanged, which is what makes a cluster run
	// byte-identical to a local one. Sim studies only.
	ReplicaRunner func(ctx context.Context, spec Spec, key PointKey, rep int) (Point, error)
}

// replicaSeed derives the seed for one replica of one grid point from the
// study's base seed and the point's content fingerprint
// (resultcache.Identity.SeedFingerprint). splitmix64-style finalization
// keeps seeds deterministic for a (base seed, physical point, replica)
// triple while decorrelating neighboring points. Deriving from the content
// fingerprint rather than the grid index means the same physical point
// produces the same replicas in any study that contains it — the property
// the content-addressed result cache shares points across studies by.
func replicaSeed(base int64, fp uint64, rep int) int64 {
	z := uint64(base)*0x9e3779b97f4a7c15 + fp + uint64(rep+1)*0xbf58476d1ce4e5b9
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	s := int64(z >> 1) // non-negative; 0 would be re-defaulted by Config
	if s == 0 {
		s = 1
	}
	return s
}

// RunReplicaJob executes one (point, replica) simulation job of a
// normalized spec — the unit of work a cluster worker performs on behalf
// of a coordinator. The replica seed derives from the point's content
// fingerprint, so the same job computes the same Point on any node.
// onSlot, when non-nil, is invoked once per simulated slot (fault
// injection's crash-at-slot hook). Completed replicas are counted on ctr;
// aborted ones are not. The unnamed int is ignored; it stays until the
// benchmark change that deletes the core.p2_speedup pass, whose traced
// replicas pass it.
func RunReplicaJob(ctx context.Context, spec Spec, key PointKey, rep, _ int, ctr *Counters, onSlot func(sim.Slot)) (Point, error) {
	spec = spec.WithDefaults()
	if err := spec.Validate(); err != nil {
		return Point{}, err
	}
	if !spec.simLike() {
		return Point{}, fmt.Errorf("experiment: replica jobs are sim-only, got kind %q", spec.Kind)
	}
	fp := spec.PointIdentity(key).SeedFingerprint()
	return runReplica(ctx, spec, fp, key, rep, ctr, onSlot)
}

// runReplica executes one (point, replica) simulation job. The point key
// carries series labels; the spec entries resolve them back to registered
// names and option assignments. ctx aborts the slot loop mid-replica.
func runReplica(ctx context.Context, spec Spec, fp uint64, key PointKey, rep int, ctr *Counters, onSlot func(sim.Slot)) (Point, error) {
	alg := entry(spec.Algorithms, key.Algorithm)
	tk := entry(spec.Traffic, key.Traffic)
	cfg := Config{
		N:              key.N,
		Traffic:        tk.Name,
		Slots:          spec.Slots,
		Warmup:         spec.Warmup,
		Burst:          key.Burst,
		Seed:           replicaSeed(spec.Seed, fp, rep),
		AlgOptions:     alg.Options,
		TrafficOptions: tk.Options,
		Windows:        spec.Windows,
		OnSlot:         onSlot,
		Context:        ctx,
	}
	if key.Scenario != "" {
		sc := entry(spec.Scenarios, key.Scenario)
		cfg.Scenario = sc.Name
		cfg.ScenarioOptions = sc.Options
	}
	// Resolve the defaults here (withDefaults is idempotent; RunPoint
	// applies it again) so the slot accounting below reads the exact
	// warmup the simulation runs with rather than re-deriving the policy.
	cfg = cfg.withDefaults()
	// The simulate span wraps only the slot loop; seeds and cache keys
	// were fixed before tracing existed and stay independent of it.
	sp := trace.FromContext(ctx).Start("simulate")
	sp.SetJob(key.String(), rep)
	p, err := RunPoint(alg.Name, cfg, key.Load)
	sp.End()
	if err == nil && ctr != nil {
		ctr.ReplicasComputed.Add(1)
		ctr.SlotsSimulated.Add(int64(cfg.Slots + cfg.Warmup))
	}
	return p, err
}

// analyticPoint evaluates one point of a markov or bound study.
func analyticPoint(kind SpecKind, key PointKey) PointResult {
	r := PointResult{PointKey: key, Replicas: 1}
	switch kind {
	case MarkovStudy:
		r.MeanDelay = markov.MeanQueueClosedForm(key.N, key.Load)
	case BoundStudy:
		r.QueueOverload = bound.FormatLog(bound.LogQueueOverload(key.N, key.Load))
		r.SwitchOverload = bound.FormatLog(bound.LogSwitchOverload(key.N, key.Load))
	}
	return r
}

// aggregate folds the replica measurements of one point into its PointResult.
func aggregate(key PointKey, reps []Point) PointResult {
	delays := make([]float64, len(reps))
	thrus := make([]float64, len(reps))
	r := PointResult{PointKey: key, Replicas: len(reps)}
	for i, p := range reps {
		delays[i] = p.MeanDelay
		thrus[i] = p.Throughput
		r.P99Delay += p.P99Delay
		if p.MaxDelay > r.MaxDelay {
			r.MaxDelay = p.MaxDelay
		}
		r.Reordered += p.Reordered
		r.Delivered += p.Delivered
	}
	r.P99Delay /= float64(len(reps))
	r.MeanDelay, r.DelayCI95 = stats.MeanCI95(delays)
	r.Throughput, r.ThroughputCI95 = stats.MeanCI95(thrus)
	r.Windows = aggregateWindows(reps)
	return r
}

// aggregateWindows folds the replicas' per-window series into one: every
// replica ran the same window grid, so window w aggregates elementwise —
// means for the delay/backlog gauges, totals for the counters.
func aggregateWindows(reps []Point) []stats.WindowPoint {
	if len(reps) == 0 || len(reps[0].Windows) == 0 {
		return nil
	}
	k := float64(len(reps))
	out := make([]stats.WindowPoint, len(reps[0].Windows))
	for wi := range out {
		w := reps[0].Windows[wi]
		agg := stats.WindowPoint{Window: w.Window, Start: w.Start, End: w.End}
		for _, p := range reps {
			pw := p.Windows[wi]
			agg.MeanDelay += pw.MeanDelay
			agg.P99Delay += pw.P99Delay
			agg.Backlog += pw.Backlog
			agg.Offered += pw.Offered
			agg.Delivered += pw.Delivered
			agg.Reordered += pw.Reordered
		}
		agg.MeanDelay /= k
		agg.P99Delay /= k
		agg.Backlog /= k
		if agg.Offered > 0 {
			agg.Throughput = float64(agg.Delivered) / float64(agg.Offered)
		}
		out[wi] = agg
	}
	return out
}

// IsCancellation reports whether err is a context cancellation or deadline
// expiry (however wrapped) — the condition under which RunStudy (and the
// remote client) returned a usable partial prefix rather than failing. The
// CLIs share it to pick between "render what we have, exit 2" and a hard
// error.
func IsCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// RunStudy executes spec and returns its points in canonical grid order. A
// dense or analytic study is one batch, its grid; an adaptive study runs its
// seed grid as round 0 and then the refinement batches adaptive.go plans
// from the recorded results. Each batch runs on a pool of Parallelism
// workers, and each replicated point aggregates into one PointResult.
//
// With cfg.ResultsPath set, finished points are appended to the JSONL file
// strictly in grid order; a later run with the same spec and file skips the
// recorded prefix, so an interrupted study resumes where it stopped and the
// final file is byte-identical to an uninterrupted run's.
//
// With cfg.Cache set, every sim point is first looked up by content
// identity and every computed point is stored back, so a study only ever
// simulates points no previous study (or run) has computed.
//
// Canceling ctx stops the study promptly — the worker pool drains, each
// in-flight replica aborts its slot loop within milliseconds, and every
// point recorded so far has already been flushed to the checkpoint — and
// RunStudy returns the recorded prefix alongside the context's error, so
// callers can render partial results after a Ctrl-C or serve them after an
// API cancellation.
func RunStudy(ctx context.Context, spec Spec, cfg StudyConfig) ([]PointResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	spec = spec.WithDefaults()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if cfg.Counters != nil {
		cfg.Counters.StudiesRun.Add(1)
	}
	batch := spec.Points()
	r := &studyRun{spec: spec, cfg: cfg, tc: trace.FromContext(ctx), recorded: make([]PointResult, 0, len(batch))}
	if spec.Kind == AdaptiveStudy {
		r.initGroups(batch)
	}
	if cfg.ResultsPath != "" {
		prior, end, hasHeader, err := loadResults(cfg.ResultsPath, spec)
		if err != nil {
			return nil, err
		}
		out, err := os.OpenFile(cfg.ResultsPath, os.O_CREATE|os.O_RDWR, 0o644)
		if err != nil {
			return nil, err
		}
		defer out.Close()
		// Drop any partial trailing line left by a killed run, then append.
		if err := out.Truncate(end); err != nil {
			return nil, err
		}
		if _, err := out.Seek(end, 0); err != nil {
			return nil, err
		}
		if !hasHeader {
			if err := appendHeader(out, spec); err != nil {
				return nil, err
			}
		}
		r.prior, r.out = prior, out
	}

	for round := 0; ; round++ {
		if err := r.runBatch(ctx, batch, round); err != nil {
			if errors.Is(err, ErrHalted) || IsCancellation(err) {
				// Everything recorded so far is already flushed to the
				// checkpoint; hand the prefix back so the caller can render
				// or serve partial results.
				return r.recorded, err
			}
			return nil, err
		}
		if spec.Kind != AdaptiveStudy || round >= spec.Adaptive.MaxRounds {
			break
		}
		if round == 0 {
			r.calibrate()
		}
		if batch = r.nextBatch(); len(batch) == 0 {
			break
		}
	}
	if r.cursor < len(r.prior) {
		return nil, fmt.Errorf("experiment: results file %s holds %d points beyond the study's — it was written by a different study or build",
			cfg.ResultsPath, len(r.prior)-r.cursor)
	}
	return r.recorded, nil
}

// studyRun is the mutable state of one RunStudy execution.
type studyRun struct {
	spec Spec
	cfg  StudyConfig
	tc   trace.SpanContext

	recorded []PointResult // every recorded point, in checkpoint order
	prior    []PointResult // checkpoint prefix from a previous run
	cursor   int           // next prior line to replay
	out      *os.File
	newpts   int // NEW points recorded this run (HaltAfterPoints counts these)

	// Adaptive studies only (adaptive.go): the curves in seed-grid order,
	// each curve's twin model and stability cap, and its twin scale, fixed
	// after round 0.
	groups  []adaptiveGroup
	gindex  map[adaptiveGroup]int
	model   []string
	maxStab []float64
	scale   []float64
}

// batchPoint is one point of a batch that this run records anew.
type batchPoint struct {
	key  PointKey
	fp   uint64 // sim kinds: replica seed fingerprint, set once the point must run
	rec  PointResult
	done bool    // rec is final: served from the cache or computed
	reps []Point // dense sim: replica measurements received so far
	got  int
}

// job is one unit of pool work: one (point, replica) of a dense sim study,
// or one whole point (rep 0) of an adaptive or analytic one.
type job struct{ pi, rep int }

type jobOut struct {
	job
	p   Point       // dense sim: one replica's measurements
	rec PointResult // adaptive and analytic kinds: the whole point
	err error
}

// runBatch executes one batch: replays the checkpoint prefix over its
// leading points, resolves the rest against the result cache, runs the
// misses on the worker pool, and records points strictly in batch order.
// Cache lookups and stores, counters and Progress all run on the calling
// goroutine; workers only simulate.
func (r *studyRun) runBatch(ctx context.Context, batch []PointKey, round int) error {
	i := 0
	for ; i < len(batch) && r.cursor < len(r.prior); i++ {
		rec := r.prior[r.cursor]
		if rec.PointKey != batch[i] {
			return fmt.Errorf("experiment: results file %s does not match the study: point %d is %s, the study expects %s",
				r.cfg.ResultsPath, r.cursor, rec.PointKey, batch[i])
		}
		r.cursor++
		r.recorded = append(r.recorded, rec)
		r.progress(rec, len(batch)-i-1)
	}
	if i == len(batch) {
		return nil
	}
	pts := make([]batchPoint, len(batch)-i)
	for pi := range pts {
		pts[pi].key = batch[i+pi]
	}
	if r.cfg.Cache != nil && r.spec.simLike() {
		if err := r.cachePrepass(pts, round); err != nil {
			return err
		}
	}
	next := 0 // next point of pts to record
	record := func() error {
		for ; next < len(pts) && pts[next].done; next++ {
			if err := r.recordNew(pts[next].rec, len(pts)-next-1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := record(); err != nil {
		return err
	}

	reps := 1
	if r.spec.Kind == SimStudy {
		reps = r.spec.Replicas
	}
	njobs := 0
	for pi := next; pi < len(pts); pi++ {
		if pt := &pts[pi]; !pt.done {
			njobs += reps
			if r.spec.simLike() {
				pt.fp = r.spec.PointIdentity(pt.key).SeedFingerprint()
			}
		}
	}
	if njobs == 0 {
		return nil // fully cached: no worker starts
	}
	queue := make(chan job, njobs)
	for pi := next; pi < len(pts); pi++ {
		for rep := 0; rep < reps && !pts[pi].done; rep++ {
			queue <- job{pi, rep}
		}
	}
	close(queue)
	par := r.cfg.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	// Leaving early (error, halt, cancellation) cancels ictx, which aborts
	// every in-flight simulation, and closes quit, which releases workers
	// whose result no one will receive; both happen before the wait.
	ictx, icancel := context.WithCancel(ctx)
	outs := make(chan jobOut)
	quit := make(chan struct{})
	var wg sync.WaitGroup
	defer func() {
		icancel()
		close(quit)
		wg.Wait()
	}()
	for w := 0; w < min(par, njobs); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for jb := range queue {
				o := r.runJob(ictx, &pts[jb.pi], jb)
				select {
				case outs <- o:
				case <-quit:
					return
				}
			}
		}()
	}
	for received := 0; received < njobs; received++ {
		o := <-outs
		pt := &pts[o.pi]
		if o.err != nil {
			if IsCancellation(o.err) {
				return o.err
			}
			return fmt.Errorf("%s: %w", pt.key, o.err)
		}
		if r.spec.Kind == SimStudy {
			if pt.reps == nil {
				pt.reps = make([]Point, reps)
			}
			pt.reps[o.rep] = o.p
			if pt.got++; pt.got < reps {
				continue
			}
			o.rec = aggregate(pt.key, pt.reps)
		}
		if err := r.complete(pt, o.rec, round); err != nil {
			return err
		}
		if err := record(); err != nil {
			return err
		}
	}
	return nil
}

// cachePrepass resolves a batch's points against the result cache before
// any work is scheduled; hits skip simulation entirely. An adaptive point's
// identity is the dense sim identity plus the early-stopping policy (see
// PointIdentity); a dense study's full-replica aggregate of the same
// physical point is strictly better than an early-stopped one, so the dense
// key is consulted first.
func (r *studyRun) cachePrepass(pts []batchPoint, round int) error {
	psp := r.tc.Start("cache-prepass")
	defer psp.End()
	for pi := range pts {
		pt := &pts[pi]
		own := r.spec.PointIdentity(pt.key)
		ids := []resultcache.Identity{own}
		if own.CIRelTol != 0 || own.MinReplicas != 0 {
			dense := own
			dense.CIRelTol, dense.MinReplicas = 0, 0
			ids = []resultcache.Identity{dense, own}
		}
		for _, id := range ids {
			b, ok, err := r.cfg.Cache.Get(id.Key())
			if err != nil {
				return fmt.Errorf("experiment: result cache: %w", err)
			}
			if !ok {
				continue
			}
			if rec, valid := decodeCachedPoint(b, id, pt.key); valid {
				r.finalize(&rec, round)
				pt.rec, pt.done = rec, true
				r.tc.Event("cache-hit", "job", pt.key.String())
				if r.cfg.Counters != nil {
					r.cfg.Counters.CacheHits.Add(1)
				}
				break
			}
			// A present-but-invalid entry — a torn write surviving a kill
			// -9, bit rot, a hash collision — is a miss, never a failed
			// study: quarantine it for the post-mortem and recompute.
			if q, canQuarantine := r.cfg.Cache.(Quarantiner); canQuarantine {
				if qerr := q.Quarantine(id.Key()); qerr != nil {
					return fmt.Errorf("experiment: quarantining corrupt cache entry: %w", qerr)
				}
			}
			if r.cfg.Counters != nil {
				r.cfg.Counters.CacheCorrupt.Add(1)
			}
		}
		if !pt.done && r.cfg.Counters != nil {
			r.cfg.Counters.CacheMisses.Add(1)
		}
	}
	return nil
}

// runJob executes one job on a pool worker.
func (r *studyRun) runJob(ctx context.Context, pt *batchPoint, jb job) jobOut {
	o := jobOut{job: jb}
	switch {
	case ctx.Err() != nil:
		// A stopped batch drains its queued jobs as errors instead of
		// burning simulation time on them.
		o.err = ctx.Err()
	case r.spec.Kind == SimStudy:
		o.p, o.err = r.replica(ctx, pt, jb.rep)
	case r.spec.Kind == AdaptiveStudy:
		o.rec, o.err = r.sequentialPoint(ctx, pt)
	default:
		o.rec = analyticPoint(r.spec.Kind, pt.key)
	}
	return o
}

// replica simulates one replica of a sim point, through the cluster hook
// when one is set.
func (r *studyRun) replica(ctx context.Context, pt *batchPoint, rep int) (Point, error) {
	if r.cfg.ReplicaRunner != nil {
		return r.cfg.ReplicaRunner(ctx, r.spec, pt.key, rep)
	}
	return runReplica(ctx, r.spec, pt.fp, pt.key, rep, r.cfg.Counters, nil)
}

// complete takes in a freshly computed point: it is counted, an adaptive
// point gets its twin fields, and a sim point is stored in the result cache
// as soon as it completes.
func (r *studyRun) complete(pt *batchPoint, rec PointResult, round int) error {
	ctr := r.cfg.Counters
	if ctr != nil {
		ctr.PointsComputed.Add(1)
	}
	pt.rec, pt.done = rec, true
	if !r.spec.simLike() {
		return nil
	}
	r.tc.Event("aggregate", "job", pt.key.String())
	if skipped := r.spec.Replicas - rec.Replicas; ctr != nil && skipped > 0 {
		ctr.ReplicasEarlyStopped.Add(int64(skipped))
		ctr.SlotsSavedEstimate.Add(int64(skipped) * int64(r.spec.Slots+r.spec.Warmup))
	}
	r.finalize(&pt.rec, round)
	if r.cfg.Cache == nil {
		return nil
	}
	id := r.spec.PointIdentity(pt.key)
	csp := r.tc.Start("cas-store")
	csp.SetJob(pt.key.String(), -1)
	err := r.cfg.Cache.Put(id.Key(), encodeCachedPoint(id, pt.rec))
	csp.End()
	if err != nil {
		return fmt.Errorf("experiment: result cache: %w", err)
	}
	return nil
}

// recordNew appends one newly produced point to the checkpoint and the
// in-memory state. It returns ErrHalted when HaltAfterPoints is reached.
func (r *studyRun) recordNew(rec PointResult, remaining int) error {
	if r.out != nil {
		if err := appendResult(r.out, rec); err != nil {
			return err
		}
	}
	r.recorded = append(r.recorded, rec)
	r.newpts++
	if rec.RefineRound > 0 && r.cfg.Counters != nil {
		r.cfg.Counters.PointsRefined.Add(1)
	}
	r.progress(rec, remaining)
	if r.cfg.HaltAfterPoints > 0 && r.newpts >= r.cfg.HaltAfterPoints {
		return ErrHalted
	}
	return nil
}

// progress reports one recorded point; remaining counts the batch points
// still ahead of it.
func (r *studyRun) progress(rec PointResult, remaining int) {
	if r.cfg.Progress != nil {
		r.cfg.Progress(len(r.recorded), len(r.recorded)+remaining, rec)
	}
}
