package resultcache

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"sprinklers/internal/registry"
)

func testIdentity() Identity {
	return Identity{
		Version:   SchemaVersion,
		Kind:      "sim",
		Algorithm: "sprinklers",
		AlgOptions: registry.Options{
			"adaptive": false, "adaptive-window": float64(1024),
		},
		Traffic:  "uniform",
		N:        8,
		Load:     0.6,
		Slots:    2000,
		Replicas: 3,
		Seed:     1,
	}
}

func TestKeyStableAndSensitive(t *testing.T) {
	id := testIdentity()
	k1, k2 := id.Key(), id.Key()
	if k1 != k2 {
		t.Fatalf("key not deterministic: %s vs %s", k1, k2)
	}
	if len(k1) != 64 {
		t.Fatalf("key %q is not a sha256 hex string", k1)
	}
	// The content addresses themselves are pinned: a change to the key
	// derivation or its encoding would strand every stored entry.
	const wantKey = "63f7d3b2a49af4505eb42130d638ecac56e949b4ff2432a8b9f173781e9cbb28"
	const wantRep0 = "e50f271cc646b80401ff58cb7196a8c94e403203b92530e51caccf5e8805b30d"
	if k1 != wantKey {
		t.Errorf("Key() = %s, want %s", k1, wantKey)
	}
	if r0 := id.ReplicaKey(0); r0 != wantRep0 {
		t.Errorf("ReplicaKey(0) = %s, want %s", r0, wantRep0)
	}
	if key, canonical := id.KeyJSON(); key != k1 || string(canonical) != string(id.canonicalJSON()) {
		t.Errorf("KeyJSON() = %s, %s; want Key() and the canonical JSON", key, canonical)
	}
	// Every field that changes what the point computes must change the key.
	variants := []Identity{}
	v := id
	v.AlgOptions = registry.Options{"adaptive": true, "adaptive-window": float64(1024)}
	variants = append(variants, v)
	v = id
	v.Load = 0.7
	variants = append(variants, v)
	v = id
	v.Seed = 2
	variants = append(variants, v)
	v = id
	v.Slots = 4000
	variants = append(variants, v)
	v = id
	v.Replicas = 5
	variants = append(variants, v)
	v = id
	v.Scenario = "flashcrowd"
	variants = append(variants, v)
	v = id
	v.Version = SchemaVersion + 1
	variants = append(variants, v)
	seen := map[string]bool{k1: true}
	for i, vid := range variants {
		k := vid.Key()
		if seen[k] {
			t.Errorf("variant %d collides with a previous key", i)
		}
		seen[k] = true
	}
}

func TestSeedFingerprintIgnoresMeasurementPolicy(t *testing.T) {
	id := testIdentity()
	fp := id.SeedFingerprint()
	v := id
	v.Slots, v.Warmup, v.Windows, v.Replicas, v.Seed = 9999, 7, 4, 9, 42
	if v.SeedFingerprint() != fp {
		t.Error("fingerprint changed with measurement policy; it must track the physical point only")
	}
	v = id
	v.Load = 0.9
	if v.SeedFingerprint() == fp {
		t.Error("fingerprint did not change with the operating point")
	}
}

// TestSeedFingerprintOutlivesSchemaVersion: bumping SchemaVersion retires
// every cached key but moves no replica seed. The fingerprint constant was
// recorded when SchemaVersion was still 1.
func TestSeedFingerprintOutlivesSchemaVersion(t *testing.T) {
	v1, v2 := testIdentity(), testIdentity()
	v1.Version, v2.Version = 1, 2
	if v1.Key() == v2.Key() {
		t.Error("version 1 and version 2 identities share a key; old entries would stay addressable")
	}
	const want = 0xe8b86133248c5cd4
	for _, id := range []Identity{v1, v2, testIdentity()} {
		if got := id.SeedFingerprint(); got != want {
			t.Errorf("version %d: SeedFingerprint = %#x, want %#x", id.Version, got, uint64(want))
		}
	}
}

func TestStoreRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := testIdentity().Key()
	if _, ok, err := s.Get(key); err != nil || ok {
		t.Fatalf("fresh store Get = ok %v err %v, want miss", ok, err)
	}
	val := []byte(`{"hello":"world"}`)
	if err := s.Put(key, val); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Get(key)
	if err != nil || !ok || !bytes.Equal(got, val) {
		t.Fatalf("Get = %q ok %v err %v, want stored value", got, ok, err)
	}
	if n, err := s.Len(); err != nil || n != 1 {
		t.Fatalf("Len = %d err %v, want 1", n, err)
	}
	if s.Puts() != 1 {
		t.Fatalf("Puts = %d, want 1", s.Puts())
	}
}

func TestStoreRejectsNonHexKeys(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"", "short", "../../../etc/passwd", "ABCDEF0123456789", "0123456789abcdeX"} {
		if err := s.Put(key, []byte("x")); err == nil {
			t.Errorf("Put(%q) accepted a malformed key", key)
		}
		if _, _, err := s.Get(key); err == nil {
			t.Errorf("Get(%q) accepted a malformed key", key)
		}
	}
}

func TestStoreConcurrentAccess(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				id := testIdentity()
				id.Load = float64(i+1) / 32
				key := id.Key()
				val := []byte(fmt.Sprintf(`{"load":%d}`, i))
				if err := s.Put(key, val); err != nil {
					t.Errorf("goroutine %d: Put: %v", g, err)
					return
				}
				got, ok, err := s.Get(key)
				if err != nil || !ok || !bytes.Equal(got, val) {
					t.Errorf("goroutine %d: Get after Put = %q ok %v err %v", g, got, ok, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n, err := s.Len(); err != nil || n != 20 {
		t.Fatalf("Len = %d err %v, want 20 distinct keys", n, err)
	}
}
