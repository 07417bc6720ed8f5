package experiment

import (
	"encoding/json"
	"reflect"
	"sync/atomic"

	"sprinklers/internal/resultcache"
)

// PointCache is the result-cache interface RunStudy consults before
// simulating a point and populates after aggregating one. Keys are content
// addresses (resultcache.Identity.Key); values are opaque to the runner.
// *resultcache.Store satisfies it. Implementations must be safe for
// concurrent use: a daemon runs many studies against one cache.
type PointCache interface {
	Get(key string) ([]byte, bool, error)
	Put(key string, val []byte) error
}

// Quarantiner is optionally implemented by a PointCache that can set aside
// a corrupt entry (one that failed envelope or identity validation on
// read) instead of leaving it to poison every future lookup.
// *resultcache.Store implements it by moving the entry to cache/corrupt/.
type Quarantiner interface {
	Quarantine(key string) error
}

// Counters accumulates the work and cache metrics of every study run
// against it. All fields are atomic so one Counters can be shared by
// concurrent studies and scraped while they run; the daemon exposes a
// process-lifetime Counters at /metrics. The cache-hit/zero-slot acceptance
// check — "a resubmitted spec executes no simulation slots" — reads exactly
// these counters.
type Counters struct {
	// CacheHits and CacheMisses count per-point cache lookups (only made
	// when a study runs with a cache configured).
	CacheHits   atomic.Int64
	CacheMisses atomic.Int64
	// PointsComputed counts grid points actually computed (not served from
	// cache or checkpoint); ReplicasComputed counts the replica simulations
	// behind them.
	PointsComputed   atomic.Int64
	ReplicasComputed atomic.Int64
	// SlotsSimulated counts the configured horizon (slots + warmup) of
	// every COMPLETED replica simulation. Replicas aborted mid-run by a
	// cancellation are not charged — the engine does not report how far an
	// aborted slot loop got — so under frequent cancellation this slightly
	// under-counts executed work. The property the acceptance check leans
	// on is exact in both directions: zero means zero slots ran.
	SlotsSimulated atomic.Int64
	// StudiesRun counts RunStudy invocations.
	StudiesRun atomic.Int64
	// CacheCorrupt counts cache entries that failed envelope or identity
	// validation on read and were treated as misses (and quarantined,
	// when the cache supports it).
	CacheCorrupt atomic.Int64
	// JobsDispatched, JobsRetried and JobsRedispatched account cluster-mode
	// replica jobs: dispatches attempted, retries after a transient
	// failure, and retries that moved the job to a different worker after
	// its original holder was marked suspect.
	JobsDispatched   atomic.Int64
	JobsRetried      atomic.Int64
	JobsRedispatched atomic.Int64
	// PeerCacheFills counts results obtained from a sibling node's cache
	// instead of simulation (point-level fills by the coordinator plus
	// replica-level fills reported by workers).
	PeerCacheFills atomic.Int64
	// LocalFallbacks counts replica jobs the coordinator ran in-process
	// because no healthy worker was available (degraded mode).
	LocalFallbacks atomic.Int64
	// JobsStolen is always zero: the cluster no longer does work stealing.
	// It stays only because the benchmark's traced metrics read it
	// (cluster.jobs_stolen in benchmark/traced.go).
	JobsStolen atomic.Int64
	// SpeculativeLaunched counts backup dispatches raced against a slow
	// primary; SpeculativeWasted counts the losing branches that actually
	// re-simulated the replica (losers that deduplicated through the
	// per-replica cache key cost nothing). When
	// speculation fires, replicas computed across the fleet equals
	// points x replicas + SpeculativeWasted.
	SpeculativeLaunched atomic.Int64
	SpeculativeWasted   atomic.Int64
	// PointsRefined counts grid points inserted by adaptive refinement
	// (recorded points beyond the seed grid); ReplicasEarlyStopped counts
	// replicas the sequential CI rule skipped, and SlotsSavedEstimate the
	// slots+warmup horizon those skipped replicas would have simulated.
	PointsRefined        atomic.Int64
	ReplicasEarlyStopped atomic.Int64
	SlotsSavedEstimate   atomic.Int64
}

// CounterSnapshot is a plain-value copy of a Counters, for JSON responses
// and metric rendering.
type CounterSnapshot struct {
	CacheHits        int64 `json:"cache_hits"`
	CacheMisses      int64 `json:"cache_misses"`
	PointsComputed   int64 `json:"points_computed"`
	ReplicasComputed int64 `json:"replicas_computed"`
	SlotsSimulated   int64 `json:"slots_simulated"`
	StudiesRun       int64 `json:"studies_run"`
	CacheCorrupt     int64 `json:"cache_corrupt,omitempty"`
	JobsDispatched   int64 `json:"jobs_dispatched,omitempty"`
	JobsRetried      int64 `json:"jobs_retried,omitempty"`
	JobsRedispatched int64 `json:"jobs_redispatched,omitempty"`
	PeerCacheFills   int64 `json:"peer_cache_fills,omitempty"`
	LocalFallbacks   int64 `json:"local_fallbacks,omitempty"`

	JobsStolen          int64 `json:"jobs_stolen,omitempty"`
	SpeculativeLaunched int64 `json:"speculative_launched,omitempty"`
	SpeculativeWasted   int64 `json:"speculative_wasted,omitempty"`

	PointsRefined        int64 `json:"points_refined,omitempty"`
	ReplicasEarlyStopped int64 `json:"replicas_early_stopped,omitempty"`
	SlotsSavedEstimate   int64 `json:"slots_saved_estimate,omitempty"`
}

// Add returns the field-wise sum of two snapshots. The daemon folds retired
// per-study counters into its process totals with it.
func (s CounterSnapshot) Add(o CounterSnapshot) CounterSnapshot {
	return CounterSnapshot{
		CacheHits:            s.CacheHits + o.CacheHits,
		CacheMisses:          s.CacheMisses + o.CacheMisses,
		PointsComputed:       s.PointsComputed + o.PointsComputed,
		ReplicasComputed:     s.ReplicasComputed + o.ReplicasComputed,
		SlotsSimulated:       s.SlotsSimulated + o.SlotsSimulated,
		StudiesRun:           s.StudiesRun + o.StudiesRun,
		CacheCorrupt:         s.CacheCorrupt + o.CacheCorrupt,
		JobsDispatched:       s.JobsDispatched + o.JobsDispatched,
		JobsRetried:          s.JobsRetried + o.JobsRetried,
		JobsRedispatched:     s.JobsRedispatched + o.JobsRedispatched,
		PeerCacheFills:       s.PeerCacheFills + o.PeerCacheFills,
		LocalFallbacks:       s.LocalFallbacks + o.LocalFallbacks,
		JobsStolen:           s.JobsStolen + o.JobsStolen,
		SpeculativeLaunched:  s.SpeculativeLaunched + o.SpeculativeLaunched,
		SpeculativeWasted:    s.SpeculativeWasted + o.SpeculativeWasted,
		PointsRefined:        s.PointsRefined + o.PointsRefined,
		ReplicasEarlyStopped: s.ReplicasEarlyStopped + o.ReplicasEarlyStopped,
		SlotsSavedEstimate:   s.SlotsSavedEstimate + o.SlotsSavedEstimate,
	}
}

// Snapshot returns a consistent-enough copy of the counters (each field is
// read atomically; the set is not a transaction, which metrics don't need).
func (c *Counters) Snapshot() CounterSnapshot {
	return CounterSnapshot{
		CacheHits:        c.CacheHits.Load(),
		CacheMisses:      c.CacheMisses.Load(),
		PointsComputed:   c.PointsComputed.Load(),
		ReplicasComputed: c.ReplicasComputed.Load(),
		SlotsSimulated:   c.SlotsSimulated.Load(),
		StudiesRun:       c.StudiesRun.Load(),
		CacheCorrupt:     c.CacheCorrupt.Load(),
		JobsDispatched:   c.JobsDispatched.Load(),
		JobsRetried:      c.JobsRetried.Load(),
		JobsRedispatched: c.JobsRedispatched.Load(),
		PeerCacheFills:   c.PeerCacheFills.Load(),
		LocalFallbacks:   c.LocalFallbacks.Load(),

		JobsStolen:          c.JobsStolen.Load(),
		SpeculativeLaunched: c.SpeculativeLaunched.Load(),
		SpeculativeWasted:   c.SpeculativeWasted.Load(),

		PointsRefined:        c.PointsRefined.Load(),
		ReplicasEarlyStopped: c.ReplicasEarlyStopped.Load(),
		SlotsSavedEstimate:   c.SlotsSavedEstimate.Load(),
	}
}

// PointIdentity returns the canonical content identity of one grid point of
// the spec: everything that determines the point's PointResult — the
// resolved architecture/workload/scenario entries with their normalized
// options, the operating point, the measurement horizon, and the seed
// derivation inputs. Call it on a WithDefaults-normalized spec; labels
// ("as") are deliberately absent, so two studies sweeping the same physical
// configuration under different series names share cache entries.
func (s Spec) PointIdentity(key PointKey) resultcache.Identity {
	id := resultcache.Identity{
		Version:  resultcache.SchemaVersion,
		Kind:     string(s.Kind),
		N:        key.N,
		Load:     key.Load,
		Burst:    key.Burst,
		Slots:    int64(s.Slots),
		Warmup:   int64(s.Warmup),
		Windows:  s.Windows,
		Replicas: s.Replicas,
		Seed:     s.Seed,
	}
	if !s.simLike() {
		return id
	}
	// An adaptive point IS a sim point plus an early-stopping policy: the
	// identity keeps Kind "sim" so the physical fields (and the seed
	// fingerprint, which zeroes the policy) line up with the dense study of
	// the same point, and carries the policy in the dedicated fields. Dense
	// full-replica entries are therefore reusable by adaptive lookups, while
	// early-stopped adaptive aggregates can never collide with dense keys.
	if s.Kind == AdaptiveStudy {
		id.Kind = string(SimStudy)
		if s.Adaptive != nil {
			id.CIRelTol = s.Adaptive.CIRelTol
			id.MinReplicas = s.Adaptive.MinReplicas
		}
	}
	alg := entry(s.Algorithms, key.Algorithm)
	id.Algorithm = string(alg.Name)
	id.AlgOptions = alg.Options
	tk := entry(s.Traffic, key.Traffic)
	id.Traffic = string(tk.Name)
	id.TrafficOptions = tk.Options
	if key.Scenario != "" {
		sc := entry(s.Scenarios, key.Scenario)
		id.Scenario = string(sc.Name)
		id.ScenarioOptions = sc.Options
	}
	return id
}

// cachedPoint is the envelope stored in the result cache: the identity is
// echoed next to the result so a corrupted or hash-colliding entry is
// detected on read instead of silently serving a wrong point.
type cachedPoint struct {
	Identity resultcache.Identity `json:"identity"`
	Result   PointResult          `json:"result"`
}

// encodeCachedPoint marshals the envelope. PointResult always marshals.
func encodeCachedPoint(id resultcache.Identity, rec PointResult) []byte {
	b, err := json.Marshal(cachedPoint{Identity: id, Result: rec})
	if err != nil {
		panic("experiment: cached point not marshalable: " + err.Error())
	}
	return b
}

// cachedReplica is the envelope cluster workers store per completed
// replica: the identity and replica index are echoed next to the
// measurements so a corrupt or misaddressed entry is detected on read.
// Replica envelopes are what make worker failover lose at most one
// in-flight replica — every completed replica is re-findable by
// Identity.ReplicaKey from any node's cache.
type cachedReplica struct {
	Identity resultcache.Identity `json:"identity"`
	Rep      int                  `json:"rep"`
	Point    Point                `json:"point"`
}

// EncodeCachedReplica marshals one replica's envelope for storage under
// id.ReplicaKey(rep).
func EncodeCachedReplica(id resultcache.Identity, rep int, p Point) []byte {
	b, err := json.Marshal(cachedReplica{Identity: id, Rep: rep, Point: p})
	if err != nil {
		panic("experiment: cached replica not marshalable: " + err.Error())
	}
	return b
}

// DecodeCachedReplica validates a replica envelope against the identity
// and replica index it was addressed by. A mismatched or unparsable entry
// reports ok == false and must be treated as a miss (and quarantined).
func DecodeCachedReplica(b []byte, id resultcache.Identity, rep int) (Point, bool) {
	var env cachedReplica
	if err := json.Unmarshal(b, &env); err != nil {
		return Point{}, false
	}
	if env.Rep != rep || !reflect.DeepEqual(env.Identity, id) {
		return Point{}, false
	}
	return env.Point, true
}

// decodeCachedPoint validates a cache entry against the identity it was
// addressed by and returns the stored result re-labeled with the caller's
// point key (series labels are presentation, not identity, so a hit from a
// differently-labeled study adopts the requesting study's labels). A
// mismatched or unparsable entry reports ok == false and is treated as a
// miss.
func decodeCachedPoint(b []byte, id resultcache.Identity, key PointKey) (PointResult, bool) {
	var env cachedPoint
	if err := json.Unmarshal(b, &env); err != nil {
		return PointResult{}, false
	}
	if !reflect.DeepEqual(env.Identity, id) {
		return PointResult{}, false
	}
	rec := env.Result
	rec.PointKey = key
	return rec, true
}
