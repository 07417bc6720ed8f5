package experiment

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"sync"

	"sprinklers/internal/resultcache"
	"sprinklers/internal/stats"
	"sprinklers/internal/twin"
)

// The adaptive executor. An adaptive study spends its simulation budget
// where the delay curve needs it instead of on a fixed dense grid:
//
//   - Round 0 simulates the coarse seed grid (Spec.Points) and calibrates,
//     per curve, a multiplicative scale mapping the architecture's analytic
//     twin (internal/twin) onto the simulated delays.
//   - Each later round scores every interval of every curve by the worse of
//     twin-vs-simulation divergence and normalized curvature at its
//     endpoints, and inserts midpoints into the intervals that score above
//     Adaptive.RefineThreshold — best scores first, capped by the
//     Adaptive.MaxPoints budget and the Adaptive.MinLoadGap resolution.
//   - Within every point, replicas run sequentially and stop early once the
//     batch-means confidence interval is tight (stats.SequentialStop).
//
// Determinism is the load-bearing property. The frontier is a pure function
// of the recorded results, replicas within a point always run in index
// order, and points are recorded strictly in batch order — so the JSONL
// checkpoint of a killed-and-resumed run, or of a cluster-dispatched run,
// is byte-identical to an uninterrupted local run's. Resume replays the
// checkpoint prefix against the recomputed frontier instead of trusting it.

// adaptiveGroup identifies one delay curve of an adaptive study — a series
// (algorithm x traffic labels) at one size and burst factor. Calibration
// and refinement decisions are per curve.
type adaptiveGroup struct {
	Algorithm Algorithm
	Traffic   TrafficKind
	N         int
	Burst     float64
}

// adaptiveRun is the mutable state of one adaptive study execution.
type adaptiveRun struct {
	spec Spec
	cfg  StudyConfig
	ad   AdaptiveSpec

	groups  []adaptiveGroup
	gindex  map[adaptiveGroup]int
	model   []string  // per-group twin model name
	maxStab []float64 // per-group registered stability cap
	scale   []float64 // per-group calibration, fixed after round 0

	recorded []PointResult // every recorded point, in checkpoint order
	bygroup  [][]int       // per-group indexes into recorded

	prior  []PointResult // checkpoint prefix from a previous run
	cursor int           // next prior line to replay
	out    *os.File
	newpts int // NEW points recorded this run (HaltAfterPoints counts these)
}

// runAdaptive executes an adaptive study. The spec is already normalized
// and validated by RunStudy.
func runAdaptive(ctx context.Context, spec Spec, cfg StudyConfig) ([]PointResult, error) {
	r := &adaptiveRun{spec: spec, cfg: cfg, ad: *spec.Adaptive}
	seed := spec.Points()
	r.initGroups(seed)

	if cfg.ResultsPath != "" {
		prior, end, hasHeader, err := loadResults(cfg.ResultsPath, spec, nil)
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
		r.prior = prior
		r.out = out
	}

	batch := seed
	for round := 0; ; round++ {
		if err := r.runBatch(ctx, batch, round); err != nil {
			if errors.Is(err, ErrHalted) || IsCancellation(err) {
				return r.recorded, err
			}
			return nil, err
		}
		if round == 0 {
			r.calibrate()
		}
		if round >= r.ad.MaxRounds {
			break
		}
		batch = r.nextBatch()
		if len(batch) == 0 {
			break
		}
	}
	if r.cursor < len(r.prior) {
		return nil, fmt.Errorf("experiment: results file %s holds %d points beyond the adaptive frontier — it was written by a different study or build",
			cfg.ResultsPath, len(r.prior)-r.cursor)
	}
	return r.recorded, nil
}

// initGroups derives the curve groups (and their twin models) from the seed
// grid, in first-appearance order — the canonical group order every later
// tie-break uses.
func (r *adaptiveRun) initGroups(seed []PointKey) {
	r.gindex = make(map[adaptiveGroup]int)
	for _, k := range seed {
		gk := adaptiveGroup{Algorithm: k.Algorithm, Traffic: k.Traffic, N: k.N, Burst: k.Burst}
		if _, ok := r.gindex[gk]; ok {
			continue
		}
		r.gindex[gk] = len(r.groups)
		r.groups = append(r.groups, gk)
		alg := entry(r.spec.Algorithms, k.Algorithm)
		model, maxStable := twin.Model(string(alg.Name))
		r.model = append(r.model, model)
		r.maxStab = append(r.maxStab, maxStable)
	}
	r.bygroup = make([][]int, len(r.groups))
}

// rawTwin evaluates the uncalibrated twin of group g at one load.
func (r *adaptiveRun) rawTwin(g int, load float64) float64 {
	return twin.Delay(r.model[g], r.maxStab[g], r.groups[g].N, load)
}

// calibrate fixes each group's twin scale from its round-0 (seed) points.
// It runs exactly once, so refined points never feed back into the scale —
// which keeps the frontier a pure function of the recorded results.
func (r *adaptiveRun) calibrate() {
	r.scale = make([]float64, len(r.groups))
	for g := range r.groups {
		var raw, sim []float64
		for _, idx := range r.bygroup[g] {
			rec := r.recorded[idx]
			raw = append(raw, r.rawTwin(g, rec.Load))
			sim = append(sim, rec.MeanDelay)
		}
		r.scale[g] = twin.Calibrate(raw, sim)
	}
}

// track registers a recorded point with the group bookkeeping.
func (r *adaptiveRun) track(rec PointResult) error {
	gk := adaptiveGroup{Algorithm: rec.Algorithm, Traffic: rec.Traffic, N: rec.N, Burst: rec.Burst}
	g, ok := r.gindex[gk]
	if !ok {
		return fmt.Errorf("experiment: results file %s holds point %s outside the study's curves", r.cfg.ResultsPath, rec.PointKey)
	}
	r.bygroup[g] = append(r.bygroup[g], len(r.recorded))
	r.recorded = append(r.recorded, rec)
	return nil
}

// adopt replays one checkpointed point without re-executing or re-writing
// it. remaining is the number of batch points still ahead of this one.
func (r *adaptiveRun) adopt(rec PointResult, remaining int) error {
	if err := r.track(rec); err != nil {
		return err
	}
	if r.cfg.Progress != nil {
		r.cfg.Progress(len(r.recorded), len(r.recorded)+remaining, rec)
	}
	return nil
}

// recordNew appends one newly produced point to the checkpoint and the
// in-memory state. It returns ErrHalted when HaltAfterPoints is reached.
func (r *adaptiveRun) recordNew(rec PointResult, remaining int) error {
	if r.out != nil {
		if err := appendResult(r.out, rec); err != nil {
			return err
		}
	}
	if err := r.track(rec); err != nil {
		return err
	}
	r.newpts++
	if rec.RefineRound > 0 && r.cfg.Counters != nil {
		r.cfg.Counters.PointsRefined.Add(1)
	}
	if r.cfg.Progress != nil {
		r.cfg.Progress(len(r.recorded), len(r.recorded)+remaining, rec)
	}
	if r.cfg.HaltAfterPoints > 0 && r.newpts >= r.cfg.HaltAfterPoints {
		return ErrHalted
	}
	return nil
}

// finalize stamps the twin fields of a point about to be recorded. They are
// recomputed even for cache hits, so checkpoint bytes never depend on what
// happened to be cached. Seed points carry no twin fields — their lines are
// written before the scale exists.
func (r *adaptiveRun) finalize(rec *PointResult, round int) {
	rec.TwinDelay, rec.TwinDivergence, rec.RefineRound = 0, 0, 0
	if round == 0 {
		return
	}
	gk := adaptiveGroup{Algorithm: rec.Algorithm, Traffic: rec.Traffic, N: rec.N, Burst: rec.Burst}
	g := r.gindex[gk]
	rec.TwinDelay = r.scale[g] * r.rawTwin(g, rec.Load)
	rec.TwinDivergence = twin.Divergence(rec.TwinDelay, rec.MeanDelay)
	rec.RefineRound = round
}

// runBatch executes one frontier batch: replays the checkpoint prefix over
// its leading points, resolves the rest against the result cache, and
// simulates the misses — points in parallel, replicas within a point
// sequential so the early-stopping decision is deterministic. Points are
// recorded strictly in batch order.
func (r *adaptiveRun) runBatch(ctx context.Context, batch []PointKey, round int) error {
	i := 0
	for ; i < len(batch) && r.cursor < len(r.prior); i++ {
		rec := r.prior[r.cursor]
		if rec.PointKey != batch[i] {
			return fmt.Errorf("experiment: results file %s does not match the adaptive frontier: point %d is %s, the frontier expects %s",
				r.cfg.ResultsPath, r.cursor, rec.PointKey, batch[i])
		}
		r.cursor++
		if err := r.adopt(rec, len(batch)-i-1); err != nil {
			return err
		}
	}
	rest := batch[i:]
	if len(rest) == 0 {
		return nil
	}

	// Cache pre-pass. An adaptive point's identity is the dense sim
	// identity plus the early-stopping policy (see PointIdentity); a dense
	// study's full-replica aggregate of the same physical point is strictly
	// better than an early-stopped one, so the dense key is consulted first.
	type slot struct {
		key PointKey
		id  resultcache.Identity
		fp  uint64
		rec PointResult
		hit bool
	}
	slots := make([]*slot, len(rest))
	for si, key := range rest {
		id := r.spec.PointIdentity(key)
		s := &slot{key: key, id: id, fp: id.SeedFingerprint()}
		slots[si] = s
		if r.cfg.Cache == nil {
			continue
		}
		dense := id
		dense.CIRelTol, dense.MinReplicas = 0, 0
		for _, cid := range []resultcache.Identity{dense, id} {
			b, ok, err := r.cfg.Cache.Get(cid.Key())
			if err != nil {
				return fmt.Errorf("experiment: result cache: %w", err)
			}
			if !ok {
				continue
			}
			if rec, valid := decodeCachedPoint(b, cid, key); valid {
				s.rec, s.hit = rec, true
				if r.cfg.Counters != nil {
					r.cfg.Counters.CacheHits.Add(1)
				}
				break
			}
			if q, canQuarantine := r.cfg.Cache.(Quarantiner); canQuarantine {
				if qerr := q.Quarantine(cid.Key()); qerr != nil {
					return fmt.Errorf("experiment: quarantining corrupt cache entry: %w", qerr)
				}
			}
			if r.cfg.Counters != nil {
				r.cfg.Counters.CacheCorrupt.Add(1)
			}
		}
		if !s.hit && r.cfg.Counters != nil {
			r.cfg.Counters.CacheMisses.Add(1)
		}
	}

	par := r.cfg.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	ictx, icancel := context.WithCancel(ctx)
	defer icancel()
	type pointOut struct {
		si  int
		rec PointResult
		err error
	}
	toRun := 0
	for _, s := range slots {
		if !s.hit {
			toRun++
		}
	}
	// The channel is buffered to the fan-out, so workers never block on a
	// consumer that returned early (halt, error); icancel aborts their
	// in-flight slot loops instead.
	outs := make(chan pointOut, toRun)
	sem := make(chan struct{}, par)
	var wg sync.WaitGroup
	for si, s := range slots {
		if s.hit {
			continue
		}
		wg.Add(1)
		go func(si int, s *slot) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			rec, err := r.executePoint(ictx, s.key, s.fp)
			outs <- pointOut{si: si, rec: rec, err: err}
		}(si, s)
	}
	defer wg.Wait()

	ready := make(map[int]PointResult)
	nextSi := 0
	record := func() error {
		for nextSi < len(rest) {
			s := slots[nextSi]
			var rec PointResult
			switch {
			case s.hit:
				rec = s.rec
			default:
				rr, ok := ready[nextSi]
				if !ok {
					return nil
				}
				rec = rr
			}
			delete(ready, nextSi)
			r.finalize(&rec, round)
			if !s.hit && r.cfg.Cache != nil {
				if err := r.cfg.Cache.Put(s.id.Key(), encodeCachedPoint(s.id, rec)); err != nil {
					return fmt.Errorf("experiment: result cache: %w", err)
				}
			}
			if err := r.recordNew(rec, len(rest)-nextSi-1); err != nil {
				return err
			}
			nextSi++
		}
		return nil
	}

	if err := record(); err != nil {
		icancel()
		return err
	}
	for received := 0; received < toRun; received++ {
		po := <-outs
		if po.err != nil {
			icancel()
			if IsCancellation(po.err) {
				return po.err
			}
			return fmt.Errorf("%s: %w", slots[po.si].key, po.err)
		}
		ready[po.si] = po.rec
		if err := record(); err != nil {
			icancel()
			return err
		}
	}
	return nil
}

// executePoint simulates one point's replicas in index order, stopping
// early once the batch-means CI relative half-width is within the spec's
// tolerance. The sequence of replica results depends only on the spec and
// the point (never on Parallelism), so the stopping
// decision — and therefore the recorded bytes — is deterministic.
func (r *adaptiveRun) executePoint(ctx context.Context, key PointKey, fp uint64) (PointResult, error) {
	reps := make([]Point, 0, r.spec.Replicas)
	delays := make([]float64, 0, r.spec.Replicas)
	for rep := 0; rep < r.spec.Replicas; rep++ {
		if err := ctx.Err(); err != nil {
			return PointResult{}, err
		}
		var p Point
		var err error
		if r.cfg.ReplicaRunner != nil {
			p, err = r.cfg.ReplicaRunner(ctx, r.spec, key, rep)
		} else {
			p, err = runReplica(ctx, r.spec, fp, key, rep, r.cfg.Counters, nil)
		}
		if err != nil {
			return PointResult{}, err
		}
		reps = append(reps, p)
		delays = append(delays, p.MeanDelay)
		if stats.SequentialStop(delays, r.ad.MinReplicas, r.ad.CIRelTol) {
			break
		}
	}
	rec := aggregate(key, reps)
	if ctr := r.cfg.Counters; ctr != nil {
		ctr.PointsComputed.Add(1)
		if skipped := r.spec.Replicas - len(reps); skipped > 0 {
			ctr.ReplicasEarlyStopped.Add(int64(skipped))
			ctr.SlotsSavedEstimate.Add(int64(skipped) * int64(r.spec.Slots+r.spec.Warmup))
		}
	}
	return rec, nil
}

// nextBatch computes the next refinement batch from everything recorded so
// far: for every curve, every interval between adjacent recorded loads is
// scored by the worse of twin divergence and normalized curvature at its
// endpoints, and the best-scoring intervals (above RefineThreshold, within
// the MaxPoints budget, resolvable within MinLoadGap) get their midpoints.
// The batch is returned in canonical order: group index, then load.
func (r *adaptiveRun) nextBatch() []PointKey {
	budget := r.ad.MaxPoints - len(r.recorded)
	if budget <= 0 {
		return nil
	}
	type cand struct {
		g           int
		load, score float64
	}
	var cands []cand
	for g := range r.groups {
		idxs := r.bygroup[g]
		type pt struct{ load, sim float64 }
		pts := make([]pt, 0, len(idxs))
		for _, idx := range idxs {
			pts = append(pts, pt{load: r.recorded[idx].Load, sim: r.recorded[idx].MeanDelay})
		}
		sort.Slice(pts, func(a, b int) bool { return pts[a].load < pts[b].load })
		n := len(pts)
		if n < 2 {
			continue
		}
		div := make([]float64, n)
		for i := range pts {
			div[i] = twin.Divergence(r.scale[g]*r.rawTwin(g, pts[i].load), pts[i].sim)
		}
		// Normalized curvature at the interior points: the jump in slope
		// across the point, times half the surrounding span, relative to
		// the local delay level (floored at 1 slot).
		curv := make([]float64, n)
		for i := 1; i < n-1; i++ {
			dl1, dl2 := pts[i].load-pts[i-1].load, pts[i+1].load-pts[i].load
			if dl1 <= 0 || dl2 <= 0 {
				continue
			}
			s1 := (pts[i].sim - pts[i-1].sim) / dl1
			s2 := (pts[i+1].sim - pts[i].sim) / dl2
			curv[i] = math.Abs(s2-s1) * (pts[i+1].load - pts[i-1].load) / 2 / math.Max(math.Abs(pts[i].sim), 1)
		}
		for i := 0; i < n-1; i++ {
			score := math.Max(math.Max(div[i], div[i+1]), math.Max(curv[i], curv[i+1]))
			if score <= r.ad.RefineThreshold {
				continue
			}
			m := math.Round((pts[i].load+pts[i+1].load)/2*1e4) / 1e4
			if m-pts[i].load < r.ad.MinLoadGap || pts[i+1].load-m < r.ad.MinLoadGap {
				continue
			}
			cands = append(cands, cand{g: g, load: m, score: score})
		}
	}
	// Best scores first under the budget; exact tie-breaks keep the
	// selection (and so the whole study) deterministic.
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].score != cands[b].score {
			return cands[a].score > cands[b].score
		}
		if cands[a].g != cands[b].g {
			return cands[a].g < cands[b].g
		}
		return cands[a].load < cands[b].load
	})
	if len(cands) > budget {
		cands = cands[:budget]
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].g != cands[b].g {
			return cands[a].g < cands[b].g
		}
		return cands[a].load < cands[b].load
	})
	keys := make([]PointKey, len(cands))
	for i, c := range cands {
		gk := r.groups[c.g]
		keys[i] = PointKey{Algorithm: gk.Algorithm, Traffic: gk.Traffic, N: gk.N, Load: c.load, Burst: gk.Burst}
	}
	return keys
}
