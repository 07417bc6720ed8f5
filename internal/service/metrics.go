package service

import (
	"fmt"
	"math"
	"net/http"
)

// handleMetrics renders the daemon's counters in the Prometheus text
// exposition format (no client library — counters and gauges need nothing
// beyond `# TYPE` lines and `name value` samples). TestProcesses
// (cmd/sprinklerd) scrapes sprinklerd_cache_hits_total and
// sprinklerd_sim_slots_total to prove that a study resubmitted to a daemon
// restarted on the same cache is a pure cache read: the hit counter reads
// the point count and the slot counter 0.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	c := s.TotalCounters()
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	counter("sprinklerd_cache_hits_total", "Study points served from the content-addressed result cache.", c.CacheHits)
	counter("sprinklerd_cache_misses_total", "Study points not found in the result cache.", c.CacheMisses)
	counter("sprinklerd_points_computed_total", "Grid points computed (not served from cache).", c.PointsComputed)
	counter("sprinklerd_replicas_computed_total", "Replica simulations executed.", c.ReplicasComputed)
	counter("sprinklerd_sim_slots_total", "Simulation slots executed, warmup included.", c.SlotsSimulated)
	counter("sprinklerd_points_refined_total", "Grid points inserted by adaptive refinement.", c.PointsRefined)
	counter("sprinklerd_replicas_early_stopped_total", "Replicas skipped by the sequential CI stopping rule.", c.ReplicasEarlyStopped)
	counter("sprinklerd_slots_saved_estimate", "Estimated simulation slots saved by early-stopped replicas.", c.SlotsSavedEstimate)
	counter("sprinklerd_studies_run_total", "Study executions started (submissions minus dedups).", c.StudiesRun)
	counter("sprinklerd_studies_submitted_total", "Study submissions accepted.", s.submitted.Load())
	counter("sprinklerd_studies_deduped_total", "Submissions joined onto an existing execution or finished study.", s.deduped.Load())
	counter("sprinklerd_cache_puts_total", "Result-cache writes since the daemon started.", s.cache.Puts())
	counter("sprinklerd_cache_corrupt_total", "Cache entries that failed validation on read and were quarantined.", c.CacheCorrupt)
	gauge("sprinklerd_studies_running", "Studies currently executing.", int64(s.RunningStudies()))

	// Eviction accounting: the byte gauge lets an operator (and
	// TestCacheBoundSweeper) assert the configured disk bound holds.
	counter("sprinklerd_cache_evictions_total", "Cache entries evicted by the size-bound sweeper.", s.cache.Evictions())
	if size, err := s.cache.Size(); err == nil {
		gauge("sprinklerd_cache_bytes", "Bytes currently held by the result cache (quarantine excluded).", size)
	}

	// Cluster metrics, present on every daemon (workers serve jobs; only a
	// coordinator has a worker table).
	counter("sprinklerd_jobs_served_total", "Replicas served by this daemon's /api/v1/jobs endpoint.", s.jobsServed.Load())
	counter("sprinklerd_jobs_dispatched_total", "Replicas dispatched to cluster workers (a lease counts each replica it carries).", c.JobsDispatched)
	counter("sprinklerd_jobs_retried_total", "Replicas re-sent after a transient failure of their lease.", c.JobsRetried)
	counter("sprinklerd_job_redispatch_total", "Re-sent replicas that moved to a different worker.", c.JobsRedispatched)
	counter("sprinklerd_peer_cache_fill_total", "Replicas this worker adopted from a sibling node's cache instead of simulating.", c.PeerCacheFills)
	counter("sprinklerd_jobs_local_fallback_total", "Replicas run locally because no healthy worker was available.", c.LocalFallbacks)
	counter("sprinklerd_speculative_launched_total", "Replicas carried by speculative backups raced against slow leases.", c.SpeculativeLaunched)
	counter("sprinklerd_speculative_wasted_total", "Replicas a losing speculative branch simulated anyway.", c.SpeculativeWasted)
	gauge("sprinklerd_job_queue_depth", "Replica simulations waiting for an execution slot on this worker.", s.queued.Load())
	gauge("sprinklerd_jobs_inflight", "Replica simulations currently running on this worker.", s.inflight.Load())
	fmt.Fprintf(w, "# HELP sprinklerd_sim_slots_per_sec EWMA of simulated slots per second on this worker.\n# TYPE sprinklerd_sim_slots_per_sec gauge\nsprinklerd_sim_slots_per_sec %g\n",
		math.Float64frombits(s.simRate.Load()))
	if s.cluster != nil {
		cs := s.cluster.Snapshot()
		gauge("sprinklerd_workers_total", "Workers known to this coordinator.", int64(cs.WorkersTotal))
		gauge("sprinklerd_workers_healthy", "Workers currently passing heartbeats.", int64(cs.WorkersHealthy))
		gauge("sprinklerd_speculative_pending", "Speculative loser branches still in flight on this coordinator.", int64(cs.SpeculativePending))
		degraded := int64(0)
		if s.cluster.Degraded() {
			degraded = 1
		}
		gauge("sprinklerd_cluster_degraded", "1 while every worker is down and studies run on local fallback.", degraded)
	}

	// Latency histograms (log-linear cells, exposed as cumulative
	// le-labeled log2 buckets like any client-library histogram).
	s.hDispatch.WriteProm(w)
	s.hJobExec.WriteProm(w)
	s.hQueueWait.WriteProm(w)
	s.hCacheGet.WriteProm(w)
	s.hCachePut.WriteProm(w)

	// Trace journal health: retained window size and how much has been
	// overwritten (a truncated old study's timeline is expected once
	// dropped > 0).
	gauge("sprinklerd_trace_spans", "Trace spans currently retained in the ring journal.", int64(s.journal.Len()))
	counter("sprinklerd_trace_spans_dropped_total", "Trace spans overwritten by the bounded ring journal.", s.journal.Dropped())

	// Build identity as a constant labeled gauge, the node_exporter idiom.
	v := s.Version()
	fmt.Fprintf(w, "# HELP sprinklerd_build_info Build and runtime identity of this daemon (constant 1).\n# TYPE sprinklerd_build_info gauge\n")
	fmt.Fprintf(w, "sprinklerd_build_info{go_version=%q,revision=%q,modified=%q,role=%q,node=%q} 1\n",
		v.GoVersion, v.Revision, fmt.Sprint(v.Modified), v.Role, v.Node)
}
