package experiment

import (
	"context"
	"math"
	"sort"

	"sprinklers/internal/markov"
	"sprinklers/internal/registry"
	"sprinklers/internal/stats"
)

// Adaptive studies spend their simulation budget where the delay curve
// needs it instead of on a fixed dense grid. RunStudy runs them batch by
// batch like any study; this file decides what the batches are and how one
// point runs:
//
//   - Round 0 simulates the coarse seed grid (Spec.Points) and calibrates,
//     per curve, a multiplicative scale mapping the architecture's analytic
//     twin (twinModel, below) onto the simulated delays.
//   - Each later round scores every interval of every curve by the worse of
//     twin-vs-simulation divergence and normalized curvature at its
//     endpoints, and inserts midpoints into the intervals that score above
//     Adaptive.RefineThreshold — best scores first, capped by the
//     Adaptive.MaxPoints budget and the Adaptive.MinLoadGap resolution.
//   - Within every point, replicas run sequentially and stop early once the
//     batch-means confidence interval is tight (stats.SequentialStop).
//
// Determinism is the load-bearing property. The frontier is a pure function
// of the recorded results and replicas within a point always run in index
// order, so the JSONL checkpoint of a killed-and-resumed run, or of a
// cluster-dispatched run, is byte-identical to an uninterrupted local run's.

// adaptiveGroup identifies one delay curve of an adaptive study — a series
// (algorithm x traffic labels) at one size and burst factor. Calibration
// and refinement decisions are per curve.
type adaptiveGroup struct {
	Algorithm Algorithm
	Traffic   TrafficKind
	N         int
	Burst     float64
}

func groupOf(k PointKey) adaptiveGroup {
	return adaptiveGroup{Algorithm: k.Algorithm, Traffic: k.Traffic, N: k.N, Burst: k.Burst}
}

// initGroups derives the curve groups (and their twin models) from the seed
// grid, in first-appearance order — the canonical group order every later
// tie-break uses.
func (r *studyRun) initGroups(seed []PointKey) {
	r.gindex = make(map[adaptiveGroup]int)
	for _, k := range seed {
		gk := groupOf(k)
		if _, ok := r.gindex[gk]; ok {
			continue
		}
		r.gindex[gk] = len(r.groups)
		r.groups = append(r.groups, gk)
		alg := entry(r.spec.Algorithms, k.Algorithm)
		model, maxStable := twinModel(string(alg.Name))
		r.model = append(r.model, model)
		r.maxStab = append(r.maxStab, maxStable)
	}
}

// byGroup returns, per group, its recorded points in record order.
func (r *studyRun) byGroup() [][]PointResult {
	out := make([][]PointResult, len(r.groups))
	for _, rec := range r.recorded {
		g := r.gindex[groupOf(rec.PointKey)]
		out[g] = append(out[g], rec)
	}
	return out
}

// rawTwin evaluates the uncalibrated twin of group g at one load.
func (r *studyRun) rawTwin(g int, load float64) float64 {
	return twinDelay(r.model[g], r.maxStab[g], r.groups[g].N, load)
}

// calibrate fixes each group's twin scale from its round-0 (seed) points.
// It runs exactly once, so refined points never feed back into the scale —
// which keeps the frontier a pure function of the recorded results.
func (r *studyRun) calibrate() {
	r.scale = make([]float64, len(r.groups))
	for g, recs := range r.byGroup() {
		var raw, sim []float64
		for _, rec := range recs {
			raw = append(raw, r.rawTwin(g, rec.Load))
			sim = append(sim, rec.MeanDelay)
		}
		r.scale[g] = calibrateTwin(raw, sim)
	}
}

// finalize stamps the twin fields of a point about to be recorded. They are
// recomputed even for cache hits, so checkpoint bytes never depend on what
// happened to be cached. Round-0 points (every point of a dense study)
// carry no twin fields — an adaptive seed line is written before the scale
// exists.
func (r *studyRun) finalize(rec *PointResult, round int) {
	rec.TwinDelay, rec.TwinDivergence, rec.RefineRound = 0, 0, 0
	if round == 0 {
		return
	}
	g := r.gindex[groupOf(rec.PointKey)]
	rec.TwinDelay = r.scale[g] * r.rawTwin(g, rec.Load)
	rec.TwinDivergence = twinDivergence(rec.TwinDelay, rec.MeanDelay)
	rec.RefineRound = round
}

// sequentialPoint simulates one adaptive point's replicas in index order,
// stopping early once the batch-means CI relative half-width is within the
// spec's tolerance. The sequence of replica results depends only on the
// spec and the point (never on Parallelism), so the stopping decision — and
// therefore the recorded bytes — is deterministic.
func (r *studyRun) sequentialPoint(ctx context.Context, pt *batchPoint) (PointResult, error) {
	ad := r.spec.Adaptive
	reps := make([]Point, 0, r.spec.Replicas)
	delays := make([]float64, 0, r.spec.Replicas)
	for rep := 0; rep < r.spec.Replicas; rep++ {
		if err := ctx.Err(); err != nil {
			return PointResult{}, err
		}
		var p [1]Point
		if err := r.replicas(ctx, pt, rep, p[:]); err != nil {
			return PointResult{}, err
		}
		reps = append(reps, p[0])
		delays = append(delays, p[0].MeanDelay)
		if stats.SequentialStop(delays, ad.MinReplicas, ad.CIRelTol) {
			break
		}
	}
	return aggregate(pt.key, reps), nil
}

// nextBatch computes the next refinement batch from everything recorded so
// far: for every curve, every interval between adjacent recorded loads is
// scored by the worse of twin divergence and normalized curvature at its
// endpoints, and the best-scoring intervals (above RefineThreshold, within
// the MaxPoints budget, resolvable within MinLoadGap) get their midpoints.
// The batch is returned in canonical order: group index, then load.
func (r *studyRun) nextBatch() []PointKey {
	ad := r.spec.Adaptive
	budget := ad.MaxPoints - len(r.recorded)
	if budget <= 0 {
		return nil
	}
	type cand struct {
		g           int
		load, score float64
	}
	var cands []cand
	for g, recs := range r.byGroup() {
		type pt struct{ load, sim float64 }
		pts := make([]pt, 0, len(recs))
		for _, rec := range recs {
			pts = append(pts, pt{load: rec.Load, sim: rec.MeanDelay})
		}
		sort.Slice(pts, func(a, b int) bool { return pts[a].load < pts[b].load })
		n := len(pts)
		if n < 2 {
			continue
		}
		div := make([]float64, n)
		for i := range pts {
			div[i] = twinDivergence(r.scale[g]*r.rawTwin(g, pts[i].load), pts[i].sim)
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
			if score <= ad.RefineThreshold {
				continue
			}
			m := math.Round((pts[i].load+pts[i+1].load)/2*1e4) / 1e4
			if m-pts[i].load < ad.MinLoadGap || pts[i+1].load-m < ad.MinLoadGap {
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

// The analytic twins: calibrated closed-form delay models of the registered
// architectures, the cheap surrogate an adaptive study evaluates at every
// candidate point so that new simulation goes only where the calibrated
// twin and the simulation disagree (or the curve bends faster than the grid
// resolves). Which closed form tracks an architecture is registry metadata
// (registry.Architecture.Twin): the paper's intermediate-stage Markov model
// for the load-balanced striping family, a generic single-server queue
// shape for everything else. Architectures with a registered MaxStableLoad
// rescale load by it, so the twin diverges exactly where the architecture
// hits its stability cliff — which is where refinement should spend points.

// Twin model names, as registry.Architecture.Twin spells them.
const (
	// twinMarkov is the paper's Fig. 5 closed form for the mean
	// intermediate-stage queue of a load-balanced two-stage switch.
	twinMarkov = "markov"
	// twinQueue is a generic single-server queueing shape rho/(1-rho) —
	// the fallback for architectures without a registered twin.
	twinQueue = "queue"
)

// twinMaxRho caps the effective load fed to the closed forms: both diverge
// as rho -> 1 and the markov form is undefined at 1. The cap keeps twin
// values finite while still towering over any simulated delay, which is
// all the refinement signal needs at a cliff.
const twinMaxRho = 0.999

// twinModel returns the twin model and stability cap registered for an
// architecture name. Unknown names (and architectures without a Twin
// entry) fall back to twinQueue with no cap.
func twinModel(arch string) (model string, maxStable float64) {
	a, ok := registry.Architectures.Lookup(arch)
	if !ok {
		return twinQueue, 0
	}
	model = a.Twin
	if model == "" {
		model = twinQueue
	}
	return model, a.MaxStableLoad
}

// twinDelay evaluates the raw (uncalibrated) twin at one operating point.
// maxStable > 0 rescales load by the architecture's stability limit, so
// the model blows up at the registered cliff instead of at load 1.
func twinDelay(model string, maxStable float64, n int, load float64) float64 {
	rho := load
	if maxStable > 0 {
		rho = load / maxStable
	}
	rho = math.Min(rho, twinMaxRho)
	switch model {
	case twinMarkov:
		return markov.MeanQueueClosedForm(n, rho)
	default:
		return rho / (1 - rho)
	}
}

// calibrateTwin returns the multiplicative scale mapping raw twin values
// onto simulated delays: the mean of the per-point ratios sim/raw. A ratio
// mean (rather than a least-squares fit) weighs the low-load points — where
// the twin's shape assumptions hold best — equally with the knee, and is
// trivially deterministic. Without usable points the scale is 1 (the twin
// is used uncalibrated).
func calibrateTwin(raw, sim []float64) float64 {
	if len(raw) != len(sim) {
		panic("experiment: calibrateTwin called with mismatched series")
	}
	var sum float64
	var n int
	for i := range raw {
		if raw[i] > 1e-9 {
			sum += sim[i] / raw[i]
			n++
		}
	}
	if n == 0 {
		return 1
	}
	return sum / float64(n)
}

// twinDivergence is the relative disagreement between a calibrated twin
// value and a simulated delay, with the denominator floored at 1 slot so
// near-zero delays cannot manufacture infinite divergence.
func twinDivergence(predicted, simulated float64) float64 {
	return math.Abs(predicted-simulated) / math.Max(math.Abs(simulated), 1)
}
