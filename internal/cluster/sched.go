// Load-aware scheduling: the fast half of the fault-tolerant cluster.
// The coordinator's own count of outstanding dispatches per worker is the
// only load signal — workers report nothing back. Placement is
// power-of-two-choices over that count (exact round-robin when counts are
// equal), and a slow job is raced against a speculative backup on an idle
// worker — first result wins, the loser is deduplicated by the per-replica
// CAS key and only ever counted, never aggregated.
package cluster

import (
	"context"
	"time"

	"sprinklers/internal/experiment"
	"sprinklers/internal/trace"
)

// pick chooses the worker for one dispatch: power-of-two-choices over the
// first two healthy candidates in round-robin order, by the coordinator's
// outstanding dispatches on each. Ties go to round-robin order, so equal
// loads degrade to exact round-robin. A worker equal to avoid is only
// returned when it is the sole healthy one (a failed job should move, not
// hammer the same suspect). nil means no healthy worker.
func (c *Coordinator) pick(avoid *worker) *worker {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.workers)
	if n == 0 {
		return nil
	}
	var first, second, fallback *worker
	for i := 0; i < n; i++ {
		w := c.workers[(c.rr+i)%n]
		if !w.isHealthy() {
			continue
		}
		if w == avoid {
			fallback = w
			continue
		}
		if first == nil {
			first = w
			continue
		}
		second = w
		break
	}
	c.rr = (c.rr + 1) % n
	if first == nil {
		return fallback
	}
	if second == nil {
		return first
	}
	if second.load() < first.load() {
		return second
	}
	return first
}

// backupFor returns the worker a speculative backup of a job outstanding
// on primary may launch on: another healthy worker with nothing
// outstanding from this coordinator. The primary carries at least the job
// itself, so an idle worker is strictly less loaded than it: never a backup
// at equal load, behind another of this coordinator's jobs, or on a
// single-worker fleet.
// The scan starts at pick's round-robin cursor without advancing it, so
// polling slow jobs leave placement order alone. nil means no backup now.
func (c *Coordinator) backupFor(primary *worker) *worker {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.workers)
	for i := 0; i < n; i++ {
		w := c.workers[(c.rr+i)%n]
		if w == primary || !w.isHealthy() {
			continue
		}
		if w.load() == 0 {
			return w
		}
	}
	return nil
}

// observeLatency feeds one successful dispatch latency into the
// percentile estimator behind speculation and slow-job warnings.
func (c *Coordinator) observeLatency(d time.Duration) {
	c.specMu.Lock()
	c.specLat.Add(float64(d))
	c.specMu.Unlock()
}

// latencyPct is the dispatch-latency percentile past which a job counts as
// slow. speculateMinSamples is how many dispatch latencies must be observed
// before the percentile is trusted; speculateFloor bounds the threshold
// from below so a burst of cache-hit dispatches cannot make every job
// "slow".
const (
	latencyPct          = 0.95
	speculateMinSamples = 8
	speculateFloor      = 5 * time.Millisecond
)

// speculateThreshold returns how long a dispatch may run before it
// counts as slow (warning + backup launch), or 0 while the percentile
// is under-sampled.
func (c *Coordinator) speculateThreshold() time.Duration {
	c.specMu.Lock()
	defer c.specMu.Unlock()
	if c.specLat.Count() < speculateMinSamples {
		return 0
	}
	d := time.Duration(c.specLat.Value())
	if d < speculateFloor {
		d = speculateFloor
	}
	return d
}

// send runs one dispatch with the coordinator's outstanding-load accounting
// around it, observing the latency of successful attempts.
func (c *Coordinator) send(ctx context.Context, w *worker, spec experiment.Spec, key experiment.PointKey, rep int) (experiment.Point, string, error) {
	w.addOutstanding(1)
	defer w.addOutstanding(-1)
	start := time.Now()
	p, src, err := c.dispatch(ctx, w, spec, key, rep)
	if err == nil {
		c.dispatchHist.Observe(time.Since(start))
	}
	return p, src, err
}

// specResult is one branch of a speculative race.
type specResult struct {
	p   experiment.Point
	src string
	err error
	w   *worker
}

// dispatchSpeculate runs one dispatch, racing it against a speculative
// backup once the primary has been outstanding longer than the P95 of
// observed dispatch latency and an idle worker exists (backupFor),
// wherever in the study that happens. The first successful result
// wins and is the only one returned to the study; the loser is reaped in
// the background — it either deduplicates via the per-replica CAS key
// (cache or peer read) or, having simulated anyway, is counted in
// SpeculativeWasted. The returned worker is the one that produced the
// result (for health credit).
func (c *Coordinator) dispatchSpeculate(ctx context.Context, w *worker, spec experiment.Spec, key experiment.PointKey, rep int) (experiment.Point, string, *worker, error) {
	start := time.Now()
	ch := make(chan specResult, 2)
	go func() {
		p, src, err := c.send(ctx, w, spec, key, rep)
		ch <- specResult{p, src, err, w}
	}()
	inflight := 1
	backup := false
	warned := false
	// Poll instead of arming one timer at the entry threshold: the
	// percentile may only become available (or move) while this dispatch is
	// already stuck behind a straggler.
	poll := c.opts.HeartbeatInterval
	if poll > 50*time.Millisecond {
		poll = 50 * time.Millisecond
	}
	timer := time.NewTimer(poll)
	defer timer.Stop()
	var firstErr error
	for {
		select {
		case r := <-ch:
			inflight--
			if r.err == nil {
				c.observeLatency(time.Since(start))
				if inflight > 0 {
					c.specPending.Add(1)
					go c.reapLoser(ch)
				}
				return r.p, r.src, r.w, nil
			}
			if firstErr == nil {
				firstErr = r.err
			}
			if inflight == 0 {
				return experiment.Point{}, "", w, firstErr
			}
			// The other branch is still running; wait for it.
		case <-timer.C:
			if th := c.speculateThreshold(); th > 0 && time.Since(start) >= th {
				// The straggler warning fires regardless of speculation:
				// on a single-worker deployment it is the only signal a
				// job is stuck behind the fleet's own latency history.
				if !warned {
					warned = true
					tc := trace.FromContext(ctx)
					c.log.Warn("cluster: job outstanding past dispatch-latency percentile",
						"job", key.String(), "rep", rep, "worker", w.url,
						"elapsed_ms", time.Since(start).Milliseconds(),
						"threshold_ms", th.Milliseconds(),
						"pct", latencyPct, "trace", tc.Trace)
					tc.Event("slow-job", "job", key.String(), "worker", w.url)
				}
				if c.opts.Speculate && !backup {
					if bw := c.backupFor(w); bw != nil {
						backup = true
						inflight++
						c.counters.SpeculativeLaunched.Add(1)
						c.counters.JobsDispatched.Add(1)
						c.log.Info("cluster: speculative backup launched",
							"job", key.String(), "rep", rep, "backup", bw.url, "primary", w.url,
							"pct", latencyPct, "trace", trace.FromContext(ctx).Trace)
						trace.FromContext(ctx).Event("speculate", "job", key.String(), "backup", bw.url, "primary", w.url)
						go func() {
							p, src, err := c.send(ctx, bw, spec, key, rep)
							ch <- specResult{p, src, err, bw}
						}()
					}
				}
			}
			timer.Reset(poll)
		case <-ctx.Done():
			// The study is gone; the in-flight sends abort with it (the
			// channel is buffered, so they never leak).
			return experiment.Point{}, "", w, ctx.Err()
		}
	}
}

// reapLoser accounts the slower branch of a speculative race after the
// winner has already been returned. A loser that served from its cache or
// a peer deduplicated via the CAS key — free. A loser that simulated is
// wasted work, counted so the replicas-computed invariant can be stated
// exactly: computed == points x replicas + SpeculativeWasted. An errored
// loser (lease expiry, cancellation, a real death) computed nothing extra
// and is left to the health machinery.
func (c *Coordinator) reapLoser(ch <-chan specResult) {
	r := <-ch
	if r.err == nil {
		r.w.ok()
		if r.src == SourceComputed {
			c.counters.SpeculativeWasted.Add(1)
		}
	}
	c.specPending.Add(-1)
}
