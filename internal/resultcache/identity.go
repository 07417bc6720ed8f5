// Package resultcache is the content-addressed result store behind the
// study-serving daemon (cmd/sprinklerd): every simulated grid point is
// stored under the hash of its canonical normalized identity — the
// architecture and workload (with their full normalized option
// assignments), the scenario, the operating point (size, load, burst), the
// measurement horizon and the seed derivation — so any two studies whose
// grids overlap share the overlapping points, and resubmitting a spec whose
// points are all cached is a pure read with zero simulation slots executed.
//
// The keying only works because PR 3's option normalization made specs
// JSON-stable: a normalized registry.Options marshals identically on every
// round trip, so the identity JSON — and therefore the SHA-256 key — is a
// stable function of what the point computes, not of how the spec was
// written.
package resultcache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"sprinklers/internal/registry"
)

// SchemaVersion is the identity schema version baked into every key. Bump
// it whenever a change makes previously cached results non-reproducible
// (e.g. a simulator behavior change): old entries then simply stop being
// addressable instead of serving stale results. Version 2 retired the
// bursty points above b/(b+1) that version 1 simulated under-offered.
// Replica seeds do not follow the bump (see SeedFingerprint).
const SchemaVersion = 2

// seedVersion is the Version every SeedFingerprint hashes with. It stays
// at 1 so that a SchemaVersion bump retires cached results without moving
// a single replica seed, and with it every simulated number.
const seedVersion = 1

// Identity is the canonical description of one study point computation: if
// two Identity values are equal, the runner is guaranteed to produce the
// same PointResult for both. All option maps must be schema-normalized
// (registry.Schema.Normalize), which is what makes the JSON form — and the
// derived key — canonical.
type Identity struct {
	// Version is the identity schema version (SchemaVersion).
	Version int `json:"v"`
	// Kind is the study kind ("sim", "markov", "bound").
	Kind string `json:"kind"`
	// Algorithm and AlgOptions name the architecture and its normalized
	// option assignment (sim kinds only).
	Algorithm  string           `json:"algorithm,omitempty"`
	AlgOptions registry.Options `json:"alg_options,omitempty"`
	// Traffic and TrafficOptions name the workload (sim kinds only).
	Traffic        string           `json:"traffic,omitempty"`
	TrafficOptions registry.Options `json:"traffic_options,omitempty"`
	// Scenario and ScenarioOptions name the dynamic scenario replayed over
	// the point; empty for static points.
	Scenario        string           `json:"scenario,omitempty"`
	ScenarioOptions registry.Options `json:"scenario_options,omitempty"`
	// N, Load and Burst locate the operating point.
	N     int     `json:"n"`
	Load  float64 `json:"load"`
	Burst float64 `json:"burst,omitempty"`
	// Slots, Warmup and Windows fix the measurement horizon.
	Slots   int64 `json:"slots,omitempty"`
	Warmup  int64 `json:"warmup,omitempty"`
	Windows int   `json:"windows,omitempty"`
	// Replicas and Seed fix the seed derivation: every replica seed is a
	// deterministic function of (Seed, the physical point, replica index).
	Replicas int   `json:"replicas,omitempty"`
	Seed     int64 `json:"seed,omitempty"`
	// CIRelTol and MinReplicas are the sequential early-stopping policy of
	// adaptive studies: replicas stop once the 95% CI half-width of the
	// replica delay means falls under CIRelTol x mean, after at least
	// MinReplicas. They are part of the identity because an early-stopped
	// aggregate is a different result than a full-replica one; both are
	// zero for dense studies, so dense keys are unchanged.
	CIRelTol    float64 `json:"ci_rel_tol,omitempty"`
	MinReplicas int     `json:"min_replicas,omitempty"`
}

// canonicalJSON marshals the identity. Marshaling cannot fail: the struct
// holds only JSON-native values (normalized Options carry float64, bool and
// string only), so an error is a programming bug worth a loud stop.
func (id Identity) canonicalJSON() []byte {
	b, err := json.Marshal(id)
	if err != nil {
		panic(fmt.Sprintf("resultcache: identity not marshalable: %v", err))
	}
	return b
}

// KeyJSON returns the content address of the identity — the SHA-256 of
// its canonical JSON, hex-encoded — together with that canonical JSON.
// Equal identities produce equal keys; any difference — an option value,
// the seed, the horizon — produces an unrelated key. A cache envelope
// echoes exactly the canonical bytes, so a reader holding them checks a
// stored identity by comparing bytes instead of decoding it.
func (id Identity) KeyJSON() (key string, canonical []byte) {
	canonical = id.canonicalJSON()
	return hashKey(canonical), canonical
}

// ReplicaKey returns the content address of one replica of the identity:
// the SHA-256 of the canonical identity JSON concatenated with a replica
// suffix. Cluster workers store per-replica envelopes under these keys, so
// a worker that dies mid-point loses at most one replica's work — every
// replica another worker (or an earlier run) completed is findable by key,
// locally or via peer cache fill, and is never simulated twice.
func (id Identity) ReplicaKey(rep int) string {
	return hashKey(fmt.Appendf(id.canonicalJSON(), `{"rep":%d}`, rep))
}

// hashKey is the lowercase hex SHA-256 of b, the form of every key.
func hashKey(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// SeedFingerprint folds the physical point — kind, architecture+options,
// workload+options, scenario+options, N, load, burst — into 64 bits of
// seed material. The measurement policy (slots, warmup, windows, replicas)
// and the base seed are deliberately excluded: replica seeds must depend
// only on *what* is simulated plus the study's base seed, so that two
// studies sharing a physical point at the same base seed run
// byte-identical replicas no matter where the point sits in either grid.
// That property is what lets overlapping studies share cache entries.
func (id Identity) SeedFingerprint() uint64 {
	phys := id
	phys.Version = seedVersion
	phys.Slots, phys.Warmup, phys.Windows, phys.Replicas, phys.Seed = 0, 0, 0, 0, 0
	// The early-stopping policy decides how many replicas run, never what
	// any one replica simulates: an adaptive study's replica k is
	// byte-identical to a dense study's replica k of the same physical
	// point, which is what lets adaptive studies reuse dense cache entries.
	phys.CIRelTol, phys.MinReplicas = 0, 0
	h := sha256.Sum256(phys.canonicalJSON())
	return binary.LittleEndian.Uint64(h[:8])
}
