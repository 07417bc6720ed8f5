package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"regexp"
	"time"

	"sprinklers/internal/cluster"
	"sprinklers/internal/experiment"
	"sprinklers/internal/faultinject"
	"sprinklers/internal/resultcache"
	"sprinklers/internal/sim"
	"sprinklers/internal/trace"
)

// The cluster wire surface. A worker daemon serves /api/v1/jobs and
// /api/v1/cas/{key}; a coordinator daemon additionally serves the
// /api/v1/cluster/register membership endpoint. Every daemon serves CAS
// reads, so any node can be a peer-fill source. Workers send no load: the
// coordinator places leases by its own count of outstanding dispatches.
//
//	POST /api/v1/jobs               serve one lease: a range of one point's
//	                                replicas, streamed back as NDJSON
//	GET  /api/v1/cas/{key}          raw result-cache entry (peer cache fill)
//	POST /api/v1/cluster/register   worker joins (or, repeated every
//	                                heartbeat interval, stays in) the fleet

// maxJobBytes bounds a job request body. The coordinator sends the job's
// one-point spec, a few hundred bytes; the bound is the one a submitted
// spec gets, so a request carrying a whole study spec is served too.
const maxJobBytes = 4 << 20

// peerFillTimeout bounds one peer CAS probe during a worker's replica
// lookup; a dead sibling must cost seconds, not the whole lease.
const peerFillTimeout = 3 * time.Second

// handleJob serves one lease, replicas [Rep, Rep+Reps) of one point, in
// replica order, each cache-first:
//
//  1. The replica envelope is looked up in the local cache by
//     Identity.ReplicaKey — a re-dispatched replica whose first holder
//     already finished (or whose result survived a crash) is a read, not a
//     re-simulation. A corrupt envelope is quarantined and treated as a
//     miss.
//  2. On a miss, the request's siblings are asked — a replica computed by
//     a sibling before it died is fetched, validated, and adopted. A
//     sibling is not asked again in this lease after its first miss: a
//     lease leaves a prefix of its replicas on the worker that ran it, so
//     on a cold cache a lease costs each sibling one request.
//  3. Only then is the replica simulated, under the lease deadline, and
//     its envelope stored for future holders and peers.
//
// Validation errors are 400 before anything is written. Each replica is
// then written as one cluster.JobResponse line as soon as it is served,
// and a cluster.JobTrailer line ends a complete response. A failure after
// the first line ends the stream without its trailer, which the
// coordinator reads as a transient failure of the replicas not delivered;
// one before it is a 503 (lease expired) or 500. When a fault plan
// schedules a crash, the simulation aborts at the scheduled slot and the
// connection is severed — the in-process kill -9.
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
	n := max(req.Reps, 1)
	if req.Reps < 0 || req.Rep < 0 || req.Rep+n > spec.Replicas {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("replicas [%d,%d) out of range [0,%d)", req.Rep, req.Rep+n, spec.Replicas))
		return
	}

	// Trace context rides in on the request headers. The spans of this job
	// are collected request-scoped, attached to the trailer for the
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

	// The lease is enforced server-side too: a worker partitioned from its
	// coordinator must abort the job when the lease expires, not hold the
	// simulation (and the point's side effects) forever.
	ctx := trace.NewContext(r.Context(), jsp.SpanContext())
	if req.LeaseMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.LeaseMS)*time.Millisecond)
		defer cancel()
	}

	enc := json.NewEncoder(w)
	rc := http.NewResponseController(w)
	served, source := 0, ""
	err := s.serveLease(ctx, spec, req, n, func(rep int, p experiment.Point, src string) {
		if served == 0 {
			w.Header().Set("Content-Type", "application/x-ndjson")
			source = src
		} else if src != source {
			source = "mixed"
		}
		served++
		s.jobsServed.Add(1)
		enc.Encode(cluster.JobResponse{Rep: rep, Point: p, Source: src}) //nolint:errcheck // a gone coordinator cancels ctx
		rc.Flush()                                                       //nolint:errcheck
	})

	// Every exit ends the job span and journals what was recorded.
	if err != nil {
		jsp.Attr("outcome", err.Error())
	} else {
		jsp.Attr("source", source)
	}
	jsp.End()
	spans := buf.Spans()
	for _, sp := range spans {
		s.journal.Record(sp)
	}
	switch {
	case err == nil:
		enc.Encode(cluster.JobTrailer{End: true, Spans: spans}) //nolint:errcheck
	case served > 0:
		// The lines are out; ending the stream without its trailer hands
		// the rest of the lease back to the coordinator.
	case experiment.IsCancellation(err):
		// Lease expired (or the coordinator hung up): the job is the
		// coordinator's to re-dispatch.
		writeError(w, http.StatusServiceUnavailable, fmt.Errorf("lease expired: %w", err))
	default:
		writeError(w, http.StatusInternalServerError, err)
	}
}

// serveLease serves replicas [req.Rep, req.Rep+n) in order, handing each
// to emit as soon as it is served.
func (s *Server) serveLease(ctx context.Context, spec experiment.Spec, req cluster.JobRequest, n int,
	emit func(rep int, p experiment.Point, src string)) error {
	id := spec.PointIdentity(req.Point)
	_, canonical := id.KeyJSON()
	peers := req.Peers // the siblings still worth asking
	for rep := req.Rep; rep < req.Rep+n; rep++ {
		p, src, err := s.serveReplica(ctx, spec, id, canonical, req.Point, rep, &peers)
		if err != nil {
			return err
		}
		emit(rep, p, src)
	}
	return nil
}

// serveReplica serves one replica from the local cache, a sibling's, or a
// simulation. A sibling that misses (or fails, or returns an invalid
// envelope) is dropped from peers. canonical is id's canonical JSON, which
// every replica envelope of the point echoes.
func (s *Server) serveReplica(ctx context.Context, spec experiment.Spec, id resultcache.Identity, canonical []byte, key experiment.PointKey, rep int,
	peers *[]string) (experiment.Point, string, error) {
	tc := trace.FromContext(ctx)
	rkey := id.ReplicaKey(rep)

	// 1. Local replica envelope.
	gsp := tc.Start("cache-check")
	gsp.SetJob(key.String(), rep)
	getStart := time.Now()
	b, ok, gerr := s.cache.Get(rkey)
	s.hCacheGet.Observe(time.Since(getStart))
	gsp.End()
	if gerr == nil && ok {
		if p, valid := experiment.DecodeCachedReplica(b, canonical, rep); valid {
			return p, cluster.SourceCache, nil
		}
		s.counters.CacheCorrupt.Add(1)
		if err := s.cache.Quarantine(rkey); err != nil {
			return experiment.Point{}, "", fmt.Errorf("quarantining %s: %w", rkey, err)
		}
		s.log.Warn("corrupt replica envelope quarantined", "job", key.String(), "rep", rep, "key", rkey)
	}

	// 2. Peer cache fill. An unreachable or corrupt peer is a miss, never
	// a failed job.
	if len(*peers) > 0 {
		psp := tc.Start("peer-cache-check")
		psp.SetJob(key.String(), rep)
		for len(*peers) > 0 {
			peer := (*peers)[0]
			pctx, cancel := context.WithTimeout(ctx, peerFillTimeout)
			b, err := cluster.FetchCAS(pctx, peer, rkey)
			cancel()
			p, valid := experiment.Point{}, false
			if err == nil && b != nil {
				p, valid = experiment.DecodeCachedReplica(b, canonical, rep)
			}
			if !valid {
				*peers = (*peers)[1:]
				continue
			}
			if err := s.cache.Put(rkey, b); err != nil {
				s.log.Warn("storing peer fill failed", "job", key.String(), "rep", rep, "peer", peer, "err", err)
			}
			s.counters.PeerCacheFills.Add(1)
			psp.Attr("peer", peer)
			psp.End()
			return p, cluster.SourcePeer, nil
		}
		psp.End()
	}

	// 3. Simulate.
	p, err := s.simulate(ctx, spec, key, rep)
	if err != nil {
		return experiment.Point{}, "", err
	}
	ssp := tc.Start("cas-store")
	ssp.SetJob(key.String(), rep)
	putStart := time.Now()
	perr := s.cache.Put(rkey, experiment.EncodeCachedReplica(canonical, rep, p))
	s.hCachePut.Observe(time.Since(putStart))
	ssp.End()
	if perr != nil {
		// The result is good even if persisting it is not; the coordinator
		// gets its replica and only a future re-dispatch pays again.
		s.log.Warn("storing replica envelope failed", "job", key.String(), "rep", rep, "key", rkey, "err", perr)
	}
	return p, cluster.SourceComputed, nil
}

// simulate runs one replica behind the job-slot semaphore, so a busy
// worker's surplus replicas queue here and show up in its queue-depth
// gauge. A fault plan's scheduled crash aborts the slot loop at its slot
// and severs the connection with no further line, exactly like a killed
// process: a crashed replica is never completed, counted, or stored.
func (s *Server) simulate(ctx context.Context, spec experiment.Spec, key experiment.PointKey, rep int) (experiment.Point, error) {
	var crash *faultinject.Crash
	var onSlot func(sim.Slot)
	var delay time.Duration
	if s.fault != nil {
		delay = s.fault.JobStall()
		if cr := s.fault.JobStarted(); cr != nil {
			select {
			case <-cr.Done(): // crash on entry (slot 0, or plan already dead)
				panic(http.ErrAbortHandler)
			default:
			}
			// The cancel is wired synchronously into the per-slot hook so
			// the simulation reliably aborts at its next cancellation poll.
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

	tc := trace.FromContext(ctx)
	qsp := tc.Start("queue-wait")
	qsp.SetJob(key.String(), rep)
	queueStart := time.Now()
	s.queued.Add(1)
	select {
	case s.jobSlots <- struct{}{}:
		s.queued.Add(-1)
	case <-ctx.Done():
		s.queued.Add(-1)
		qsp.Attr("outcome", "lease-expired")
		qsp.End()
		return experiment.Point{}, fmt.Errorf("lease expired in queue: %w", ctx.Err())
	}
	s.hQueueWait.Observe(time.Since(queueStart))
	qsp.End()
	defer func() { <-s.jobSlots }()
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	if delay > 0 {
		// Chaos straggler: stall with the lease still enforced.
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return experiment.Point{}, fmt.Errorf("lease expired in delay: %w", ctx.Err())
		}
	}
	simStart := time.Now()
	p, err := experiment.RunReplicaJob(ctx, spec, key, rep, 0, &s.counters, onSlot)
	if crash != nil {
		select {
		case <-crash.Done():
			panic(http.ErrAbortHandler) // crashed mid-replica: sever, no further line
		default:
		}
	}
	if err == nil {
		s.observeSimRate(int64(spec.Slots+spec.Warmup), time.Since(simStart))
		s.hJobExec.Observe(time.Since(simStart))
	}
	return p, err
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
// simulated slots per second (sprinklerd_sim_slots_per_sec).
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

// clusterJoinRequest is the body of the register endpoint.
type clusterJoinRequest struct {
	URL string `json:"url"`
}

// handleClusterRegister admits a worker to the coordinator's fleet.
// Registration is idempotent and revives a suspect worker; a URL the
// coordinator could not dial is refused with 400.
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
	if err := s.cluster.Register(req.URL); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// JoinCluster registers this daemon with a coordinator and re-registers
// every interval until ctx is done — the worker side of dynamic fleet
// membership (`sprinklerd -join`). A failure or a refusal (the daemon is no
// coordinator, or rejects selfURL) is logged and retried on the next tick:
// a worker that outlives a coordinator restart re-registers itself the
// moment the coordinator is back.
func (s *Server) JoinCluster(ctx context.Context, coordinatorURL, selfURL string, interval time.Duration) {
	if interval <= 0 {
		interval = time.Second
	}
	body, _ := json.Marshal(clusterJoinRequest{URL: selfURL})
	beat := func() {
		bctx, cancel := context.WithTimeout(ctx, interval)
		defer cancel()
		req, err := http.NewRequestWithContext(bctx, http.MethodPost,
			coordinatorURL+"/api/v1/cluster/register", bytes.NewReader(body))
		if err != nil {
			s.log.Warn("cluster join failed", "coordinator", coordinatorURL, "err", err)
			return
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			s.log.Warn("cluster join: registration failed", "coordinator", coordinatorURL, "err", err)
			return
		}
		if resp.StatusCode/100 != 2 {
			s.log.Warn("cluster join: registration refused", "coordinator", coordinatorURL, "err", cluster.ReadError(resp))
			return
		}
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096)) //nolint:errcheck
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
