package experiment

import (
	"encoding/json"
	"strconv"
	"sync/atomic"

	"sprinklers/internal/resultcache"
)

// PointCache is the result-cache interface RunStudy consults before
// simulating a point and populates after aggregating one. Keys are content
// addresses (resultcache.Identity.KeyJSON); values are opaque to the runner.
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
	// leases in replicas: replicas dispatched, replicas re-sent after a
	// transient failure of their lease, and re-sent replicas that moved to
	// a different worker. Every cluster job counter counts replicas, so a
	// fault-free study dispatches exactly points × replicas.
	JobsDispatched   atomic.Int64
	JobsRetried      atomic.Int64
	JobsRedispatched atomic.Int64
	// PeerCacheFills counts replicas obtained from a sibling node's cache
	// instead of simulation. A fill is counted once, on the worker that
	// adopted the replica.
	PeerCacheFills atomic.Int64
	// LocalFallbacks counts replicas the coordinator ran in-process
	// because no healthy worker was available (degraded mode).
	LocalFallbacks atomic.Int64
	// JobsStolen is always zero: the cluster no longer does work stealing.
	// It stays only because the benchmark's traced metrics read it
	// (cluster.jobs_stolen in benchmark/traced.go).
	JobsStolen atomic.Int64
	// SpeculativeLaunched counts the replicas carried by backups raced
	// against a slow lease; SpeculativeWasted counts the replicas a losing
	// branch actually re-simulated (copies deduplicated through the
	// per-replica cache key cost nothing). When speculation fires,
	// replicas computed across the fleet equals points x replicas +
	// SpeculativeWasted.
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

// A cache envelope is {"identity":<canonical>,<fields>:<value>}, where
// canonical is the identity's canonical JSON (resultcache.Identity.KeyJSON),
// the bytes its key is the SHA-256 of. Echoing the identity lets a reader
// detect a corrupted entry, a hash collision or an entry stored under the
// wrong key instead of silently serving a wrong point. The writer emits
// exactly that form, so the reader checks the identity by its bytes and
// decodes only the value. Two kinds exist: a point envelope (fields
// "result") stored by RunStudy under Identity.KeyJSON's key, and a replica envelope
// (fields "rep" and "point") stored by cluster workers under
// Identity.ReplicaKey, which is what makes worker failover lose at most
// one in-flight replica: every completed replica is re-findable from any
// node's cache.
const envelopeHead = `{"identity":`

// pointFields sits between the identity and the value of a point envelope.
const pointFields = `,"result":`

// replicaFields sits between the identity and the value of a replica
// envelope.
func replicaFields(rep int) string { return `,"rep":` + strconv.Itoa(rep) + `,"point":` }

// encodeEnvelope marshals v into an envelope. Every value stored in one (a
// PointResult or a Point) always marshals.
func encodeEnvelope(canonical []byte, fields string, v any) []byte {
	val, err := json.Marshal(v)
	if err != nil {
		panic("experiment: cache envelope value not marshalable: " + err.Error())
	}
	b := make([]byte, 0, len(envelopeHead)+len(canonical)+len(fields)+len(val)+1)
	b = append(b, envelopeHead...)
	b = append(b, canonical...)
	b = append(b, fields...)
	b = append(b, val...)
	return append(b, '}')
}

// envelopeValue returns the value bytes of b if b is an envelope of the
// given identity and fields, byte for byte; anything else — another
// identity, another replica, a torn or padded entry — reports false.
func envelopeValue(b, canonical []byte, fields string) ([]byte, bool) {
	n := len(envelopeHead) + len(canonical) + len(fields)
	if len(b) <= n || b[len(b)-1] != '}' ||
		string(b[:len(envelopeHead)]) != envelopeHead ||
		string(b[len(envelopeHead):len(envelopeHead)+len(canonical)]) != string(canonical) ||
		string(b[n-len(fields):n]) != fields {
		return nil, false
	}
	return b[n : len(b)-1], true
}

// encodeCachedPoint builds the envelope RunStudy stores under the
// identity's key.
func encodeCachedPoint(canonical []byte, rec PointResult) []byte {
	return encodeEnvelope(canonical, pointFields, rec)
}

// decodeCachedPoint validates a cache entry against the canonical identity
// it was addressed by and returns the stored result re-labeled with the
// caller's point key (series labels are presentation, not identity, so a
// hit from a differently-labeled study adopts the requesting study's
// labels). A mismatched or unparsable entry reports ok == false and is
// treated as a miss.
func decodeCachedPoint(b, canonical []byte, key PointKey) (PointResult, bool) {
	v, ok := envelopeValue(b, canonical, pointFields)
	var rec PointResult
	if !ok || json.Unmarshal(v, &rec) != nil {
		return PointResult{}, false
	}
	rec.PointKey = key
	return rec, true
}

// EncodeCachedReplica builds one replica's envelope for storage under
// id.ReplicaKey(rep), canonical being the identity's canonical JSON.
func EncodeCachedReplica(canonical []byte, rep int, p Point) []byte {
	return encodeEnvelope(canonical, replicaFields(rep), p)
}

// DecodeCachedReplica validates a replica envelope against the canonical
// identity and replica index it was addressed by. A mismatched or
// unparsable entry reports ok == false and must be treated as a miss (and
// quarantined).
func DecodeCachedReplica(b, canonical []byte, rep int) (Point, bool) {
	v, ok := envelopeValue(b, canonical, replicaFields(rep))
	var p Point
	if !ok || json.Unmarshal(v, &p) != nil {
		return Point{}, false
	}
	return p, true
}
