package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"regexp"
	"time"

	"sprinklers/internal/cluster"
	"sprinklers/internal/experiment"
	"sprinklers/internal/faultinject"
	"sprinklers/internal/sim"
	"sprinklers/internal/trace"
)

// The cluster wire surface. A worker daemon serves /api/v1/jobs and
// /api/v1/cas/{key}; a coordinator daemon additionally serves the
// /api/v1/cluster registration endpoints. Every daemon serves CAS reads,
// so any node can be a peer-fill source.
//
//	POST /api/v1/jobs               execute one leased (point, replica) job
//	GET  /api/v1/cas/{key}          raw result-cache entry (peer cache fill)
//	POST /api/v1/cluster/register   worker joins the coordinator's fleet
//	POST /api/v1/cluster/heartbeat  worker push heartbeat (implies register;
//	                                body may carry a load report)

// maxJobBytes bounds a job request body. The coordinator sends the job's
// one-point spec, a few hundred bytes; the bound is the one a submitted
// spec gets, so a request carrying a whole study spec is served too.
const maxJobBytes = 4 << 20

// peerFillTimeout bounds one peer CAS probe during a worker's replica
// lookup; a dead sibling must cost seconds, not the whole lease.
const peerFillTimeout = 3 * time.Second

// handleJob executes one leased (point, replica) job, cache-first:
//
//  1. The replica envelope is looked up in the local cache by
//     Identity.ReplicaKey — a re-dispatched job whose first holder already
//     finished (or whose result survived a crash) is a read, not a
//     re-simulation. A corrupt envelope is quarantined and treated as a
//     miss.
//  2. On a miss, the request's peer list is probed — a replica computed by
//     a sibling before it died is fetched, validated, and adopted.
//  3. Only then is the replica simulated, under the lease deadline, and
//     its envelope stored for future holders and peers.
//
// The response reports the source ("cache", "peer", "computed") so the
// coordinator can account peer fills. When a fault plan schedules a crash
// for this job, the simulation aborts at the scheduled slot and the
// connection is severed without a response — the in-process kill -9.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	var req cluster.JobRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxJobBytes)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding job: %w", err))
		return
	}
	spec := req.Spec.WithDefaults()
	if err := spec.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if req.Rep < 0 || req.Rep >= spec.Replicas {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("replica %d out of range [0,%d)", req.Rep, spec.Replicas))
		return
	}
	id := spec.PointIdentity(req.Point)
	rkey := id.ReplicaKey(req.Rep)

	// Trace context rides in on the request headers. The spans of this job
	// are collected request-scoped, attached to the response for the
	// coordinator to merge, and copied into this worker's own journal.
	// Tracing never touches the job's semantics: an untraced request takes
	// exactly the same path with every span call a no-op.
	traceID, parentSpan := trace.Extract(r.Header)
	var buf *trace.Buffer
	tc := trace.SpanContext{}
	if traceID != "" && s.journal != nil {
		buf = trace.NewBuffer()
		tc = trace.SpanContext{J: buf, Trace: traceID, Parent: parentSpan, Study: traceID, Node: s.node}
	}
	jsp := tc.Start("job")
	jsp.SetJob(req.Point.String(), req.Rep)
	jtc := jsp.SpanContext()
	flushTrace := func() {
		for _, sp := range buf.Spans() {
			s.journal.Record(sp)
		}
	}
	respond := func(p experiment.Point, source string) {
		jsp.Attr("source", source)
		jsp.End()
		spans := buf.Spans()
		flushTrace()
		s.jobsServed.Add(1)
		writeJSON(w, http.StatusOK, cluster.JobResponse{Point: p, Source: source, Spans: spans})
	}

	// The lease is enforced server-side too: a worker partitioned from its
	// coordinator must abort the job when the lease expires, not hold the
	// simulation (and the point's side effects) forever.
	ctx := trace.NewContext(r.Context(), jtc)
	if req.LeaseMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.LeaseMS)*time.Millisecond)
		defer cancel()
	}

	// Fault hook: a scheduled crash aborts the slot loop at its slot and
	// drops the connection with no response, exactly like a killed process.
	// The cancel is wired synchronously into the per-slot hook so the
	// simulation reliably aborts at its next cancellation poll — a crashed
	// replica is never completed, counted, or stored.
	var crash *faultinject.Crash
	var onSlot func(sim.Slot)
	if s.fault != nil {
		if cr := s.fault.JobStarted(); cr != nil {
			select {
			case <-cr.Done(): // crash on entry (slot 0, or plan already dead)
				panic(http.ErrAbortHandler)
			default:
			}
			cctx, ccancel := context.WithCancel(ctx)
			defer ccancel()
			ctx = cctx
			crash = cr
			onSlot = func(t sim.Slot) {
				cr.OnSlot(int64(t))
				select {
				case <-cr.Done():
					ccancel()
				default:
				}
			}
		}
	}

	// 1. Local replica envelope.
	gsp := jtc.Start("cache-check")
	getStart := time.Now()
	b, ok, gerr := s.cache.Get(rkey)
	s.hCacheGet.Observe(time.Since(getStart))
	gsp.End()
	if gerr == nil && ok {
		if p, valid := experiment.DecodeCachedReplica(b, id, req.Rep); valid {
			respond(p, cluster.SourceCache)
			return
		}
		s.counters.CacheCorrupt.Add(1)
		if err := s.cache.Quarantine(rkey); err != nil {
			flushTrace()
			writeError(w, http.StatusInternalServerError, fmt.Errorf("quarantining %s: %w", rkey, err))
			return
		}
		s.log.Warn("corrupt replica envelope quarantined",
			"job", req.Point.String(), "rep", req.Rep, "key", rkey)
	}

	// 2. Peer cache fill. An unreachable or corrupt peer is a miss, never
	// a failed job.
	if len(req.Peers) > 0 {
		psp := jtc.Start("peer-cache-check")
		psp.SetJob(req.Point.String(), req.Rep)
		for _, peer := range req.Peers {
			pctx, cancel := context.WithTimeout(ctx, peerFillTimeout)
			b, err := cluster.FetchCAS(pctx, s.peerClient(), peer, rkey)
			cancel()
			if err != nil || b == nil {
				continue
			}
			p, valid := experiment.DecodeCachedReplica(b, id, req.Rep)
			if !valid {
				continue
			}
			if err := s.cache.Put(rkey, b); err != nil {
				s.log.Warn("storing peer fill failed",
					"job", req.Point.String(), "rep", req.Rep, "peer", peer, "err", err)
			}
			s.counters.PeerCacheFills.Add(1)
			psp.Attr("peer", peer)
			psp.End()
			respond(p, cluster.SourcePeer)
			return
		}
		psp.End()
	}

	// 3. Simulate — behind the job-slot semaphore, so a busy worker's
	// surplus jobs queue here and show up in its load report.
	qsp := jtc.Start("queue-wait")
	qsp.SetJob(req.Point.String(), req.Rep)
	queueStart := time.Now()
	s.queued.Add(1)
	select {
	case s.jobSlots <- struct{}{}:
		s.queued.Add(-1)
	case <-ctx.Done():
		s.queued.Add(-1)
		qsp.Attr("outcome", "lease-expired")
		qsp.End()
		flushTrace()
		writeError(w, http.StatusServiceUnavailable, fmt.Errorf("lease expired in queue: %w", ctx.Err()))
		return
	}
	s.hQueueWait.Observe(time.Since(queueStart))
	qsp.End()
	defer func() { <-s.jobSlots }()
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	if s.jobDelay > 0 {
		// Chaos straggler: stall with the lease still enforced.
		select {
		case <-time.After(s.jobDelay):
		case <-ctx.Done():
			writeError(w, http.StatusServiceUnavailable, fmt.Errorf("lease expired in delay: %w", ctx.Err()))
			return
		}
	}
	simStart := time.Now()
	p, err := experiment.RunReplicaJob(ctx, spec, req.Point, req.Rep, 0, &s.counters, onSlot)
	if err == nil {
		s.observeSimRate(int64(spec.Slots+spec.Warmup), time.Since(simStart))
		s.hJobExec.Observe(time.Since(simStart))
	}
	if crash != nil {
		select {
		case <-crash.Done():
			panic(http.ErrAbortHandler) // crashed mid-replica: sever, no response
		default:
		}
	}
	if err != nil {
		flushTrace()
		if experiment.IsCancellation(err) {
			// Lease expired (or the coordinator hung up): the job is the
			// coordinator's to re-dispatch.
			writeError(w, http.StatusServiceUnavailable, fmt.Errorf("lease expired: %w", err))
			return
		}
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	ssp := jtc.Start("cas-store")
	ssp.SetJob(req.Point.String(), req.Rep)
	putStart := time.Now()
	perr := s.cache.Put(rkey, experiment.EncodeCachedReplica(id, req.Rep, p))
	s.hCachePut.Observe(time.Since(putStart))
	ssp.End()
	if perr != nil {
		// The result is good even if persisting it is not; the coordinator
		// gets its point and only a future re-dispatch pays again.
		s.log.Warn("storing replica envelope failed",
			"job", req.Point.String(), "rep", req.Rep, "key", rkey, "err", perr)
	}
	respond(p, cluster.SourceComputed)
}

// peerClient is the HTTP client for worker→peer CAS reads.
func (s *Server) peerClient() *http.Client {
	if s.peerHTTP != nil {
		return s.peerHTTP
	}
	return http.DefaultClient
}

// casKeyRe matches a content address (or replica key): lowercase sha256
// hex. Anything else is rejected before it can reach the filesystem.
var casKeyRe = regexp.MustCompile(`^[0-9a-f]{64}$`)

// handleCAS serves one raw cache entry by content address — the peer-fill
// read path. The bytes are returned verbatim; the READER validates the
// envelope against the identity it asked for, so a corrupt peer entry
// costs a miss, not a poisoned cache.
func (s *Server) handleCAS(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !casKeyRe.MatchString(key) {
		writeError(w, http.StatusBadRequest, fmt.Errorf("malformed cache key %q", key))
		return
	}
	b, ok, err := s.cache.Get(key)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no cache entry %s", key))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(b) //nolint:errcheck // the connection is the only failure mode
}

// observeSimRate folds one completed replica simulation into the EWMA of
// simulated slots per second that heartbeats report.
func (s *Server) observeSimRate(slots int64, elapsed time.Duration) {
	if slots <= 0 || elapsed <= 0 {
		return
	}
	rate := float64(slots) / elapsed.Seconds()
	for {
		old := s.simRate.Load()
		cur := math.Float64frombits(old)
		next := rate
		if old != 0 {
			next = 0.7*cur + 0.3*rate
		}
		if s.simRate.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

// LoadReport snapshots this daemon's worker-side load for a heartbeat:
// jobs queued for an execution slot, jobs simulating, and the slots/sec
// EWMA.
func (s *Server) LoadReport() cluster.LoadReport {
	return cluster.LoadReport{
		QueueDepth:  int(s.queued.Load()),
		Inflight:    int(s.inflight.Load()),
		SlotsPerSec: math.Float64frombits(s.simRate.Load()),
	}
}

// clusterJoinRequest is the body of the register/heartbeat endpoints. Load
// is optional: plain registrations omit it, push heartbeats carry the
// worker's current load for the coordinator's placement decisions.
type clusterJoinRequest struct {
	URL  string              `json:"url"`
	Load *cluster.LoadReport `json:"load,omitempty"`
}

// handleClusterRegister admits a worker to the coordinator's fleet (also
// the push-heartbeat endpoint: registration is idempotent and revives, and
// a heartbeat's load report feeds load-aware placement and speculation).
func (s *Server) handleClusterRegister(w http.ResponseWriter, r *http.Request) {
	if s.cluster == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("this daemon is not a coordinator"))
		return
	}
	var req clusterJoinRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding registration: %w", err))
		return
	}
	if req.URL == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("registration needs a worker url"))
		return
	}
	s.cluster.HeartbeatLoad(req.URL, req.Load)
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// JoinCluster announces this daemon to a coordinator and keeps
// heartbeating every interval until ctx is done — the worker side of
// dynamic fleet membership (`sprinklerd -join`). Each beat carries the
// worker's current load report. Failures are logged and retried on the
// next tick: a worker that outlives a coordinator restart re-registers
// itself the moment the coordinator is back.
func (s *Server) JoinCluster(ctx context.Context, coordinatorURL, selfURL string, interval time.Duration) {
	if interval <= 0 {
		interval = time.Second
	}
	beat := func() {
		load := s.LoadReport()
		body, _ := json.Marshal(clusterJoinRequest{URL: selfURL, Load: &load})
		bctx, cancel := context.WithTimeout(ctx, interval)
		defer cancel()
		req, err := http.NewRequestWithContext(bctx, http.MethodPost,
			coordinatorURL+"/api/v1/cluster/heartbeat", bytes.NewReader(body))
		if err != nil {
			s.log.Warn("cluster join failed", "coordinator", coordinatorURL, "err", err)
			return
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			s.log.Warn("cluster join: heartbeat failed", "coordinator", coordinatorURL, "err", err)
			return
		}
		resp.Body.Close()
	}
	beat()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			beat()
		}
	}
}
