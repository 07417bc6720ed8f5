package resultcache

import (
	"os"
	"sort"
	"time"
)

// sweepStats summarizes one eviction sweep.
type sweepStats struct {
	// Entries and Bytes describe the cache before the sweep.
	Entries int
	Bytes   int64
	// Evicted and EvictedBytes describe what the sweep removed.
	Evicted      int
	EvictedBytes int64
}

// sweep brings the store under maxBytes by evicting the least recently
// used entries until the remaining live bytes fit. Reads in this process
// update recency; an entry never read since Open counts from its write
// time, so without reads the oldest written go first. An evicted entry
// gets a tombstone, so it stays gone across restarts. Every entry is
// recomputable from its identity, so eviction is always safe — the cost of
// evicting an entry still in use is extra simulation, never wrong results.
// Once the dead bytes on disk (overwritten, evicted and quarantined
// records, tombstones, torn tails) exceed the live record bytes, the sweep
// rewrites the live records into a fresh segment and deletes the old ones,
// so the segments never hold more than twice what is live after a sweep.
// maxBytes <= 0 disables eviction and leaves only that compaction.
func (s *Store) sweep(maxBytes int64) (sweepStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return sweepStats{}, errClosed
	}
	st := sweepStats{Entries: len(s.index), Bytes: s.live}
	if maxBytes > 0 && st.Bytes > maxBytes {
		err := s.evict(st.Bytes-maxBytes, &st)
		s.evictions.Add(int64(st.Evicted))
		if err != nil {
			return st, err
		}
	}
	return st, s.compactIfSparse()
}

// evict tombstones entries, least recently used first, until over bytes
// are gone. Call with s.mu held.
func (s *Store) evict(over int64, st *sweepStats) error {
	type candidate struct {
		key string
		entry
	}
	ents := make([]candidate, 0, len(s.index))
	for k, e := range s.index {
		ents = append(ents, candidate{k, e})
	}
	// Key order breaks recency ties, so which entries a sweep evicts never
	// depends on map iteration order.
	sort.Slice(ents, func(i, j int) bool {
		ri, rj := ents[i].recency(), ents[j].recency()
		return ri < rj || ri == rj && ents[i].key < ents[j].key
	})
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

// recency orders entries for eviction: the last read in this process, or
// the write time when that is later or there was no read.
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

// Evictions reports how many entries sweeps have evicted since Open
// (cache_evictions_total).
func (s *Store) Evictions() int64 { return s.evictions.Load() }

// StartSweeper runs sweep(maxBytes) every interval until the
// returned stop function is called. sweep errors are reported to onErr
// (nil ignores them) and do not stop the schedule — a transient filesystem
// error must not leave a long-lived daemon unbounded forever.
func (s *Store) StartSweeper(interval time.Duration, maxBytes int64, onErr func(error)) (stop func()) {
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
				if _, err := s.sweep(maxBytes); err != nil && onErr != nil {
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
