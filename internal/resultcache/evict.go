package resultcache

import (
	"fmt"
	"os"
	"sort"
	"time"
)

// Policy selects which entries an over-budget sweep evicts first. The
// policies mirror the cache-cleanup trio a long-lived mirror service needs
// (cf. dingospeed): recency for steady mixed workloads, age for append-
// mostly ones, and size for caches dominated by a few huge entries.
type Policy string

const (
	// LRU evicts the least recently read entries first. Reads in this
	// process update recency; entries never read since Open order by their
	// write time.
	LRU Policy = "lru"
	// FIFO evicts the oldest written entries first, ignoring reads.
	FIFO Policy = "fifo"
	// LargeFirst evicts the largest entries first, reclaiming the most
	// bytes with the fewest recomputable losses.
	LargeFirst Policy = "large_first"
)

// numPolicies sizes the per-policy eviction counters.
const numPolicies = 3

// Policies lists every eviction policy, in metric-label order.
var Policies = []Policy{LRU, FIFO, LargeFirst}

func (p Policy) index() int {
	for i, q := range Policies {
		if p == q {
			return i
		}
	}
	return -1
}

// ParsePolicy resolves a policy name (as given to -evict-policy).
func ParsePolicy(name string) (Policy, error) {
	p := Policy(name)
	if p.index() < 0 {
		return "", fmt.Errorf("resultcache: unknown eviction policy %q (want one of %v)", name, Policies)
	}
	return p, nil
}

// SweepStats summarizes one eviction sweep.
type SweepStats struct {
	// Entries and Bytes describe the cache before the sweep.
	Entries int
	Bytes   int64
	// Evicted and EvictedBytes describe what the sweep removed.
	Evicted      int
	EvictedBytes int64
}

// Sweep brings the store under maxBytes by evicting entries in the
// policy's order until the remaining live bytes fit; an evicted entry gets
// a tombstone, so it stays gone across restarts. Every entry is
// recomputable from its identity, so eviction is always safe — the cost of
// a wrong policy choice is extra simulation, never wrong results. Once the
// dead bytes on disk (overwritten, evicted and quarantined records,
// tombstones, torn tails) exceed the live record bytes, the sweep rewrites
// the live records into a fresh segment and deletes the old ones, so the
// segments never hold more than twice what is live after a sweep.
// maxBytes <= 0 disables eviction and leaves only that compaction.
func (s *Store) Sweep(policy Policy, maxBytes int64) (SweepStats, error) {
	if policy.index() < 0 {
		return SweepStats{}, fmt.Errorf("resultcache: unknown eviction policy %q", policy)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return SweepStats{}, errClosed
	}
	st := SweepStats{Entries: len(s.index), Bytes: s.live}
	if maxBytes > 0 && st.Bytes > maxBytes {
		err := s.evict(policy, st.Bytes-maxBytes, &st)
		s.evictions[policy.index()].Add(int64(st.Evicted))
		if err != nil {
			return st, err
		}
	}
	return st, s.compactIfSparse()
}

// evict tombstones entries in the policy's order until over bytes are
// gone. Call with s.mu held.
func (s *Store) evict(policy Policy, over int64, st *SweepStats) error {
	type candidate struct {
		key string
		entry
	}
	ents := make([]candidate, 0, len(s.index))
	for k, e := range s.index {
		ents = append(ents, candidate{k, e})
	}
	// Key order breaks the policy's ties, so which entries a sweep evicts
	// never depends on map iteration order.
	sort.Slice(ents, func(i, j int) bool { return ents[i].key < ents[j].key })
	switch policy {
	case LRU:
		sort.SliceStable(ents, func(i, j int) bool { return ents[i].recency() < ents[j].recency() })
	case FIFO:
		sort.SliceStable(ents, func(i, j int) bool { return ents[i].written < ents[j].written })
	case LargeFirst:
		sort.SliceStable(ents, func(i, j int) bool { return ents[i].size > ents[j].size })
	}
	for _, e := range ents {
		if over <= 0 {
			break
		}
		if err := s.remove(e.key); err != nil {
			return err
		}
		over -= e.size
		st.Evicted++
		st.EvictedBytes += e.size
	}
	return nil
}

// recency orders entries for LRU: the last read in this process, or the
// write time when that is later or there was no read.
func (e entry) recency() int64 { return max(e.read, e.written) }

// compactIfSparse rewrites the live records into a fresh segment and
// deletes every older one once dead bytes outweigh live ones. Old segments
// go oldest first, so a crash part-way leaves a suffix of them, whose
// replay under the new segment still yields the live set. Call with s.mu
// held.
func (s *Store) compactIfSparse() error {
	if s.disk-s.liveRc <= s.liveRc {
		return nil
	}
	old := s.segs
	if err := s.addSegment(); err != nil {
		return err
	}
	g := s.active()
	next := make(map[string]entry, len(s.index))
	for key, e := range s.index {
		val, err := s.read(e)
		if err == nil {
			e.off, err = s.appendRecord(g, kindPut, key, val, e.written)
		}
		if err != nil {
			s.segs, s.disk = old, s.disk-g.size
			g.f.Close()
			os.Remove(g.f.Name())
			return err
		}
		e.seg = g
		next[key] = e
	}
	s.index, s.segs, s.disk = next, []*segment{g}, g.size
	var first error
	for _, o := range old {
		o.f.Close()
		if err := os.Remove(o.f.Name()); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Evictions reports how many entries each policy has evicted since Open,
// in Policies order (cache_evictions_total{policy=...}).
func (s *Store) Evictions() map[Policy]int64 {
	out := make(map[Policy]int64, numPolicies)
	for i, p := range Policies {
		out[p] = s.evictions[i].Load()
	}
	return out
}

// StartSweeper runs Sweep(policy, maxBytes) every interval until the
// returned stop function is called. Sweep errors are reported to onErr
// (nil ignores them) and do not stop the schedule — a transient filesystem
// error must not leave a long-lived daemon unbounded forever.
func (s *Store) StartSweeper(interval time.Duration, policy Policy, maxBytes int64, onErr func(error)) (stop func()) {
	if interval <= 0 {
		interval = time.Minute
	}
	done := make(chan struct{})
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				if _, err := s.Sweep(policy, maxBytes); err != nil && onErr != nil {
					onErr(err)
				}
			case <-done:
				return
			}
		}
	}()
	var once bool
	return func() {
		if !once {
			once = true
			close(done)
		}
	}
}
