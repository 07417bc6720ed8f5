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
	// Parallelism bounds concurrent replica simulations; 0 = GOMAXPROCS.
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
	// point is looked up by its PointIdentity key before any simulation is
	// scheduled, and every freshly computed point is stored back — so
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
	alg := spec.algEntry(key.Algorithm)
	tk := spec.trafficEntry(key.Traffic)
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
		Parallelism:    1, // one point per goroutine; the pool parallelizes across points
		OnSlot:         onSlot,
		Context:        ctx,
	}
	if key.Scenario != "" {
		sc := spec.scenarioEntry(key.Scenario)
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

// RunStudy executes spec, sharding (point, replica) jobs across a worker
// pool and aggregating each point's replicas into a PointResult. Results are
// returned in canonical grid order.
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
	if spec.Kind == AdaptiveStudy {
		// Adaptive studies grow their grid as results come in; the frontier
		// executor owns checkpointing and ordering for the dynamic point set.
		return runAdaptive(ctx, spec, cfg)
	}
	keys := spec.Points()
	total := len(keys)
	results := make([]PointResult, total)

	start := 0
	var out *os.File
	if cfg.ResultsPath != "" {
		prior, end, hasHeader, err := loadResults(cfg.ResultsPath, spec, keys)
		if err != nil {
			return nil, err
		}
		out, err = os.OpenFile(cfg.ResultsPath, os.O_CREATE|os.O_RDWR, 0o644)
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
		copy(results, prior)
		start = len(prior)
		if cfg.Progress != nil {
			for i := 0; i < start; i++ {
				cfg.Progress(i+1, total, results[i])
			}
		}
	}
	if start == total {
		return results, nil
	}

	// Content identities: the replica seeds derive from them, and the
	// result cache keys on them.
	var ids []resultcache.Identity
	var fps []uint64
	if spec.Kind == SimStudy {
		ids = make([]resultcache.Identity, total)
		fps = make([]uint64, total)
		for pi, k := range keys {
			ids[pi] = spec.PointIdentity(k)
			fps[pi] = ids[pi].SeedFingerprint()
		}
	}

	// ready holds finished points awaiting their turn; record drains every
	// consecutive finished point strictly in grid order, so the checkpoint
	// file is always a prefix of the canonical sequence.
	ready := make(map[int]PointResult)
	next := start // next point index to record, in grid order
	written := 0
	record := func() (halted bool, _ error) {
		for {
			rec, ok := ready[next]
			if !ok {
				return false, nil
			}
			delete(ready, next)
			if out != nil {
				if err := appendResult(out, rec); err != nil {
					return false, err
				}
			}
			results[next] = rec
			next++
			written++
			if cfg.Progress != nil {
				cfg.Progress(next, total, rec)
			}
			if cfg.HaltAfterPoints > 0 && written >= cfg.HaltAfterPoints {
				return true, nil
			}
		}
	}

	// Cache pre-pass: resolve every remaining point against the cache
	// before scheduling any work. Hits skip simulation entirely; a fully
	// cached resubmission never starts the worker pool.
	cached := make([]bool, total)
	tc := trace.FromContext(ctx)
	if cfg.Cache != nil && spec.Kind == SimStudy {
		psp := tc.Start("cache-prepass")
		for pi := start; pi < total; pi++ {
			b, ok, err := cfg.Cache.Get(ids[pi].Key())
			if err != nil {
				psp.End()
				return nil, fmt.Errorf("experiment: result cache: %w", err)
			}
			if ok {
				if rec, valid := decodeCachedPoint(b, ids[pi], keys[pi]); valid {
					ready[pi] = rec
					cached[pi] = true
					tc.Event("cache-hit", "job", keys[pi].String())
					if cfg.Counters != nil {
						cfg.Counters.CacheHits.Add(1)
					}
					continue
				}
				// A present-but-invalid entry — a torn write surviving a
				// kill -9, bit rot, a hash collision — is a miss, never a
				// failed study: quarantine it for the post-mortem and
				// recompute the point.
				if q, canQuarantine := cfg.Cache.(Quarantiner); canQuarantine {
					if qerr := q.Quarantine(ids[pi].Key()); qerr != nil {
						psp.End()
						return nil, fmt.Errorf("experiment: quarantining corrupt cache entry: %w", qerr)
					}
				}
				if cfg.Counters != nil {
					cfg.Counters.CacheCorrupt.Add(1)
				}
			}
			if cfg.Counters != nil {
				cfg.Counters.CacheMisses.Add(1)
			}
		}
		psp.End()
	}
	if halted, err := record(); err != nil {
		return nil, err
	} else if halted {
		return results[:next], ErrHalted
	}
	if next == total {
		return results, nil
	}

	par := cfg.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	reps := spec.Replicas

	type job struct{ pi, rep int }
	type repOut struct {
		pi, rep int
		p       Point       // sim kinds: one replica's measurements
		rec     PointResult // analytic kinds: the whole point, computed in the worker
		err     error
	}
	jobs := make(chan job)
	outs := make(chan repOut)
	quit := make(chan struct{})
	var once sync.Once
	stop := func() { once.Do(func() { close(quit) }) }
	defer stop()

	var wg sync.WaitGroup
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for jb := range jobs {
				var ro repOut
				ro.pi, ro.rep = jb.pi, jb.rep
				switch {
				case ctx.Err() != nil:
					// A canceled study drains its queued jobs as errors
					// instead of burning simulation time on them.
					ro.err = ctx.Err()
				case spec.Kind == SimStudy && cfg.ReplicaRunner != nil:
					ro.p, ro.err = cfg.ReplicaRunner(ctx, spec, keys[jb.pi], jb.rep)
				case spec.Kind == SimStudy:
					ro.p, ro.err = runReplica(ctx, spec, fps[jb.pi], keys[jb.pi], jb.rep, cfg.Counters, nil)
				default:
					ro.rec = analyticPoint(spec.Kind, keys[jb.pi])
				}
				select {
				case outs <- ro:
				case <-quit:
					return
				}
			}
		}()
	}
	remaining := 0
	go func() {
		defer close(jobs)
		for pi := start; pi < total; pi++ {
			if cached[pi] {
				continue
			}
			for rep := 0; rep < reps; rep++ {
				select {
				case jobs <- job{pi, rep}:
				case <-quit:
					return
				}
			}
		}
	}()
	for pi := start; pi < total; pi++ {
		if !cached[pi] {
			remaining += reps
		}
	}

	pending := make(map[int][]Point) // point index -> replica measurements
	counts := make(map[int]int)
	var runErr error

	for remaining > 0 {
		ro := <-outs
		remaining--
		if ro.err != nil {
			if IsCancellation(ro.err) {
				runErr = ro.err
			} else {
				runErr = fmt.Errorf("%s: %w", keys[ro.pi], ro.err)
			}
			break
		}
		if spec.Kind != SimStudy {
			if cfg.Counters != nil {
				cfg.Counters.PointsComputed.Add(1)
			}
			ready[ro.pi] = ro.rec
		} else {
			ps := pending[ro.pi]
			if ps == nil {
				ps = make([]Point, reps)
				pending[ro.pi] = ps
			}
			ps[ro.rep] = ro.p
			counts[ro.pi]++
			if counts[ro.pi] < reps {
				continue
			}
			rec := aggregate(keys[ro.pi], ps)
			delete(pending, ro.pi)
			delete(counts, ro.pi)
			tc.Event("aggregate", "job", keys[ro.pi].String())
			if cfg.Counters != nil {
				cfg.Counters.PointsComputed.Add(1)
			}
			if cfg.Cache != nil {
				csp := tc.Start("cas-store")
				csp.SetJob(keys[ro.pi].String(), -1)
				err := cfg.Cache.Put(ids[ro.pi].Key(), encodeCachedPoint(ids[ro.pi], rec))
				csp.End()
				if err != nil {
					runErr = fmt.Errorf("experiment: result cache: %w", err)
					break
				}
			}
			ready[ro.pi] = rec
		}
		halted, err := record()
		if err != nil {
			runErr = err
			break
		}
		if halted {
			stop()
			wg.Wait()
			return results[:next], ErrHalted
		}
	}
	stop()
	wg.Wait()
	if runErr != nil {
		if IsCancellation(runErr) {
			// Everything recorded so far is already flushed to the
			// checkpoint; hand the prefix back so the caller can render or
			// serve partial results.
			return results[:next], runErr
		}
		return nil, runErr
	}
	return results, nil
}
