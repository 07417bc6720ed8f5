// Load-aware scheduling: the fast half of the fault-tolerant cluster.
// The coordinator's own count of outstanding leases per worker is the
// only load signal — workers report nothing back. A lease is counted on
// its worker when it is placed, under the coordinator's lock, so leases
// placed at the same moment see each other. Placement is least-loaded over
// that count (exact round-robin when counts are equal), and a slow lease is
// raced by a speculative backup for its remaining replicas on an idle
// worker — each replica is taken from the branch that delivers it first,
// and the loser's copy is deduplicated by the per-replica CAS key and only
// ever counted, never aggregated.
package cluster

import (
	"context"
	"time"

	"sprinklers/internal/experiment"
	"sprinklers/internal/trace"
)

// pick chooses the worker for one lease: the least-loaded healthy worker,
// scanning from the round-robin cursor, so ties go in cursor order and
// equal loads degrade to exact round-robin. A worker equal to avoid is only
// returned when it is the sole healthy one (a failed lease should move, not
// hammer the same suspect). The lease is counted on the chosen worker
// before pick returns; the caller hands it to send, which releases it, or
// releases it itself. nil means no healthy worker.
func (c *Coordinator) pick(avoid *worker) *worker {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.workers)
	if n == 0 {
		return nil
	}
	var best *worker
	bestLoad := 0
	for i := 0; i < n; i++ {
		w := c.workers[(c.rr+i)%n]
		if w == avoid || !w.isHealthy() {
			continue
		}
		if l := w.load(); best == nil || l < bestLoad {
			best, bestLoad = w, l
		}
	}
	c.rr = (c.rr + 1) % n
	if best == nil && avoid != nil && avoid.isHealthy() {
		best = avoid
	}
	if best != nil {
		best.addOutstanding(1)
	}
	return best
}

// backupFor returns the worker a speculative backup of a job outstanding
// on primary may launch on, with the backup already counted there as pick
// counts a lease: another healthy worker with nothing outstanding from
// this coordinator. The primary carries at least the job itself, so an
// idle worker is strictly less loaded than it: never a backup at equal
// load, behind another of this coordinator's jobs, or on a single-worker
// fleet.
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
			w.addOutstanding(1)
			return w
		}
	}
	return nil
}

// latencyPct is the per-replica latency percentile past which a lease
// counts as slow. speculateMinSamples is how many replica latencies must
// be observed before the percentile is trusted; speculateFloor bounds the
// threshold from below so a burst of cache-hit replicas cannot make every
// lease "slow".
const (
	latencyPct          = 0.95
	speculateMinSamples = 8
	speculateFloor      = 5 * time.Millisecond
)

// speculateThreshold returns how long a lease may go without delivering a
// replica before it counts as slow (warning + backup launch), or 0 while
// the percentile is under-sampled.
func (c *Coordinator) speculateThreshold() time.Duration {
	p, n := c.replicaGaps.Quantile(latencyPct)
	if n < speculateMinSamples {
		return 0
	}
	return max(p, speculateFloor)
}

// send runs one dispatch of a lease pick or backupFor counted on w,
// releases it when the dispatch ends, and observes the latency of
// successful leases.
func (c *Coordinator) send(ctx context.Context, w *worker, spec experiment.Spec, key experiment.PointKey, first, n int,
	deliver func(rep int, p experiment.Point, src string)) error {
	defer w.addOutstanding(-1)
	start := time.Now()
	err := c.dispatch(ctx, w, spec, key, first, n, deliver)
	if err == nil {
		c.dispatchHist.Observe(time.Since(start))
	}
	return err
}

// leaseEvent is what one branch of a lease reports: a replica line, or,
// with end set, how the branch ended.
type leaseEvent struct {
	branch int
	rep    int
	p      experiment.Point
	src    string
	end    bool
	err    error
}

// race runs one attempt at the replicas l still lacks on w, taking each
// replica into l as it arrives. Once no replica has arrived for longer
// than the P95 of observed per-replica latency and an idle worker exists
// (backupFor), a speculative backup for the replicas still missing races
// the primary; both stream in replica order, so what has arrived is
// always a prefix of the range and each replica is taken from whichever
// branch delivers it first. A replica that arrives twice is the loser's:
// counted in SpeculativeWasted when it was simulated, never kept. race
// returns once every replica has arrived and the branch that delivered
// the last one has ended, with that branch's worker (for health credit); a
// branch still running then is reaped in the background. It returns an
// error when every branch has ended with replicas still missing.
func (c *Coordinator) race(ctx context.Context, w *worker, spec experiment.Spec, key experiment.PointKey, l *lease) (*worker, error) {
	n := len(l.pts)
	// Each branch sends at most its range's lines and one end event, so
	// the buffer never blocks a branch, even after race has returned.
	ch := make(chan leaseEvent, 2*(n+1))
	branches := []*worker{}
	launch := func(bw *worker) {
		b, from := len(branches), l.first+l.done
		branches = append(branches, bw)
		go func() {
			err := c.send(ctx, bw, spec, key, from, l.first+n-from, func(rep int, p experiment.Point, src string) {
				ch <- leaseEvent{branch: b, rep: rep, p: p, src: src}
			})
			ch <- leaseEvent{branch: b, end: true, err: err}
		}()
	}
	launch(w)
	inflight := 1
	completer := -1 // the branch that delivered the last replica
	warned := false
	last := time.Now() // when the lease last made progress
	// Poll instead of arming one timer at the entry threshold: the
	// percentile may only become available (or move) while this lease is
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
		case ev := <-ch:
			switch {
			case ev.end:
				inflight--
				if ev.err != nil && firstErr == nil {
					firstErr = ev.err
				}
				if ev.branch == completer {
					if inflight > 0 {
						c.specPending.Add(1)
						go c.reapLosers(ch, branches, inflight)
					}
					return branches[ev.branch], nil
				}
				if inflight == 0 {
					return w, firstErr
				}
			case ev.rep < l.first+l.done:
				// The slower branch's copy of a replica already taken.
				if ev.src == SourceComputed {
					c.counters.SpeculativeWasted.Add(1)
				}
			default:
				now := time.Now()
				c.replicaGaps.Observe(now.Sub(last))
				last = now
				if l.take(ev.p); l.left() == 0 {
					completer = ev.branch
				}
			}
		case <-timer.C:
			if th := c.speculateThreshold(); completer < 0 && th > 0 && time.Since(last) >= th {
				// The straggler warning fires regardless of speculation:
				// on a single-worker deployment it is the only signal a
				// lease is stuck behind the fleet's own latency history.
				// Operators match on its text, which keeps the words
				// "dispatch-latency percentile": the percentile is of
				// per-replica gaps (replicaGaps), not of
				// sprinklerd_dispatch_latency_seconds, and elapsed_ms is
				// the time since the lease's last replica.
				tc := trace.FromContext(ctx)
				if !warned {
					warned = true
					c.log.Warn("cluster: job outstanding past dispatch-latency percentile",
						"job", key.String(), "rep", l.first+l.done, "worker", w.url,
						"elapsed_ms", time.Since(last).Milliseconds(),
						"threshold_ms", th.Milliseconds(),
						"pct", latencyPct, "trace", tc.Trace)
					tc.Event("slow-job", "job", key.String(), "worker", w.url)
				}
				if c.opts.Speculate && len(branches) == 1 {
					if bw := c.backupFor(w); bw != nil {
						rest := int64(l.left())
						c.counters.SpeculativeLaunched.Add(rest)
						c.counters.JobsDispatched.Add(rest)
						c.log.Info("cluster: speculative backup launched",
							"job", key.String(), "rep", l.first+l.done, "reps", rest, "backup", bw.url, "primary", w.url,
							"pct", latencyPct, "trace", tc.Trace)
						tc.Event("speculate", "job", key.String(), "backup", bw.url, "primary", w.url)
						launch(bw)
						inflight++
						// The next gap times the attempt that delivers the
						// replica, not the stall: a rescue must not raise
						// the threshold the next stuck lease waits for.
						last = time.Now()
					}
				}
			}
			timer.Reset(poll)
		case <-ctx.Done():
			// The study is gone; the in-flight sends abort with it (the
			// channel is buffered, so they never leak).
			return w, ctx.Err()
		}
	}
}

// reapLosers accounts the branches of a speculative race still running
// after race returned. Every replica they deliver was already taken: one
// served from a cache or a peer deduplicated via the CAS key — free; one
// simulated is wasted work, counted so the replicas-computed invariant can
// be stated exactly: computed == points × replicas + SpeculativeWasted. A
// branch that errors (lease expiry, cancellation, a real death) computed
// nothing extra and is left to the health machinery.
func (c *Coordinator) reapLosers(ch <-chan leaseEvent, branches []*worker, inflight int) {
	for inflight > 0 {
		ev := <-ch
		switch {
		case ev.end:
			inflight--
			if ev.err == nil {
				branches[ev.branch].ok()
			}
		case ev.src == SourceComputed:
			c.counters.SpeculativeWasted.Add(1)
		}
	}
	c.specPending.Add(-1)
}
