package resultcache

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// keyN returns a distinct valid content address.
func keyN(n int) string {
	return fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprintf("entry-%d", n))))
}

// putSized stores an entry of exactly size bytes under keyN(n), written age
// ago, so entries have distinct write times to order by.
func putSized(t *testing.T, s *Store, n, size int, age time.Duration) string {
	t.Helper()
	k := keyN(n)
	when := time.Now().Add(-age)
	s.now = func() time.Time { return when }
	defer func() { s.now = time.Now }()
	if err := s.Put(k, []byte(strings.Repeat("x", size))); err != nil {
		t.Fatal(err)
	}
	return k
}

func present(t *testing.T, s *Store, key string) bool {
	t.Helper()
	_, ok, err := s.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	return ok
}

func TestSweepUnderBudgetEvictsNothing(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	putSized(t, s, 0, 100, time.Hour)
	st, err := s.sweep(1000)
	if err != nil {
		t.Fatal(err)
	}
	if st.Evicted != 0 || st.Bytes != 100 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 entry / 100 bytes / 0 evicted", st)
	}
}

// TestSweepLRUWithoutReadsEvictsOldestWritten: an entry never read since
// Open counts from its write time, so without reads LRU is write order.
func TestSweepLRUWithoutReadsEvictsOldestWritten(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	oldest := putSized(t, s, 0, 100, 3*time.Hour)
	mid := putSized(t, s, 1, 100, 2*time.Hour)
	newest := putSized(t, s, 2, 100, time.Hour)

	st, err := s.sweep(250)
	if err != nil {
		t.Fatal(err)
	}
	if st.Evicted != 1 {
		t.Fatalf("evicted %d entries, want 1", st.Evicted)
	}
	if present(t, s, oldest) {
		t.Fatal("LRU kept the oldest unread entry")
	}
	if !present(t, s, mid) || !present(t, s, newest) {
		t.Fatal("LRU evicted a newer entry")
	}
	if got := s.Evictions(); got != 1 {
		t.Fatalf("Evictions() = %d, want 1", got)
	}
}

func TestSweepLRUKeepsRecentlyRead(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	oldButRead := putSized(t, s, 0, 100, 3*time.Hour)
	neverRead := putSized(t, s, 1, 100, 2*time.Hour)
	putSized(t, s, 2, 100, time.Hour)
	// Reading the oldest entry makes it the most recently used.
	if !present(t, s, oldButRead) {
		t.Fatal("setup: entry missing")
	}

	st, err := s.sweep(250)
	if err != nil {
		t.Fatal(err)
	}
	if st.Evicted != 1 {
		t.Fatalf("evicted %d entries, want 1", st.Evicted)
	}
	if present(t, s, neverRead) {
		t.Fatal("LRU kept the least recently used entry")
	}
	if !present(t, s, oldButRead) {
		t.Fatal("LRU evicted an entry that was just read")
	}
}

func TestSweepBoundsDiskUsage(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		putSized(t, s, i, 100, time.Duration(i)*time.Minute)
	}
	const bound = 512
	if _, err := s.sweep(bound); err != nil {
		t.Fatal(err)
	}
	size, err := s.Size()
	if err != nil {
		t.Fatal(err)
	}
	if size > bound {
		t.Fatalf("post-sweep size %d exceeds the %d-byte bound", size, bound)
	}
	if size == 0 {
		t.Fatal("sweep evicted everything; it should stop at the bound")
	}
}

func TestSweepIgnoresCorruptAndStudiesDirs(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := putSized(t, s, 0, 100, time.Hour)
	if err := s.Quarantine(k); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, "studies"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "studies", "abc.jsonl"), []byte(strings.Repeat("y", 500)), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := s.sweep(1)
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("sweep saw %d entries / %d bytes; quarantined entries and checkpoints must be invisible", st.Entries, st.Bytes)
	}
	// The quarantined bytes are still on disk for a post-mortem.
	if _, err := os.Stat(filepath.Join(dir, corruptDir, k+".json")); err != nil {
		t.Fatalf("quarantined entry missing: %v", err)
	}
}

func TestQuarantineCountsAndMisses(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := keyN(1)
	if err := s.Put(k, []byte(`{"torn`)); err != nil {
		t.Fatal(err)
	}
	if err := s.Quarantine(k); err != nil {
		t.Fatal(err)
	}
	if present(t, s, k) {
		t.Fatal("quarantined key still readable")
	}
	if got := s.Corrupts(); got != 1 {
		t.Fatalf("Corrupts() = %d, want 1", got)
	}
	// Quarantining an absent key is a no-op, not an error.
	if err := s.Quarantine(keyN(2)); err != nil {
		t.Fatal(err)
	}
	if got := s.Corrupts(); got != 1 {
		t.Fatalf("Corrupts() after no-op = %d, want 1", got)
	}
}

func TestStartSweeperBoundsInBackground(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		putSized(t, s, i, 100, time.Duration(i)*time.Minute)
	}
	stop := s.StartSweeper(5*time.Millisecond, 300, nil)
	defer stop()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		size, err := s.Size()
		if err != nil {
			t.Fatal(err)
		}
		if size <= 300 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("background sweeper never brought the store under the bound")
}

func TestReplicaKeyDistinctPerReplicaAndStable(t *testing.T) {
	id := Identity{Version: SchemaVersion, Kind: "sim", Algorithm: "sprinklers", Traffic: "uniform", N: 32, Load: 0.5}
	if id.ReplicaKey(0) == id.ReplicaKey(1) {
		t.Fatal("replica keys collide across replica indices")
	}
	if id.ReplicaKey(0) == id.Key() {
		t.Fatal("replica key collides with the point key")
	}
	if id.ReplicaKey(3) != id.ReplicaKey(3) {
		t.Fatal("replica key not stable")
	}
	if err := validKey(id.ReplicaKey(0)); err != nil {
		t.Fatal(err)
	}
}
