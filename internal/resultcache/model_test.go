package resultcache

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"
)

// modelEntry is the model's view of one live entry.
type modelEntry struct {
	val           []byte
	written, read int64
}

// cacheModel drives a Store and a plain map through the same random
// operations and checks they agree.
type cacheModel struct {
	t     *testing.T
	dir   string
	s     *Store
	clock int64
	m     map[string]*modelEntry
}

func (c *cacheModel) tick() time.Time {
	c.clock++
	return time.Unix(0, c.clock)
}

func (c *cacheModel) open() {
	s, err := Open(c.dir)
	if err != nil {
		c.t.Fatal(err)
	}
	s.now = c.tick
	c.s = s
	for _, e := range c.m {
		e.read = 0 // read recency is per process
	}
}

// evictionOrder is the model's statement of LRU: key order, then a stable
// sort by the later of last read and write.
func (c *cacheModel) evictionOrder() []string {
	keys := make([]string, 0, len(c.m))
	for k := range c.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	recency := func(k string) int64 { return max(c.m[k].read, c.m[k].written) }
	sort.SliceStable(keys, func(i, j int) bool { return recency(keys[i]) < recency(keys[j]) })
	return keys
}

func (c *cacheModel) liveBytes() (vals, records int64) {
	for k, e := range c.m {
		vals += int64(len(e.val))
		records += int64(hdrSize + len(k) + len(e.val))
	}
	return vals, records
}

// check compares the store's whole contents with the model without
// touching read recency.
func (c *cacheModel) check(step int) {
	c.t.Helper()
	c.s.mu.Lock()
	defer c.s.mu.Unlock()
	if len(c.s.index) != len(c.m) {
		c.t.Fatalf("step %d: store has %d entries, model %d", step, len(c.s.index), len(c.m))
	}
	for k, want := range c.m {
		e, ok := c.s.index[k]
		if !ok {
			c.t.Fatalf("step %d: %s missing from the store", step, k[:8])
		}
		got, err := c.s.read(e)
		if err != nil || !bytes.Equal(got, want.val) || e.written != want.written {
			c.t.Fatalf("step %d: %s = %q written %d (err %v), want %q written %d",
				step, k[:8], got, e.written, err, want.val, want.written)
		}
	}
	if vals, recs := c.liveBytes(); c.s.live != vals || c.s.liveRc != recs {
		c.t.Fatalf("step %d: store counts %d/%d live bytes, model %d/%d", step, c.s.live, c.s.liveRc, vals, recs)
	}
}

// segmentBytes sums the segment files on disk.
func (c *cacheModel) segmentBytes() int64 {
	names, err := filepath.Glob(filepath.Join(c.dir, segPrefix+"*"+segSuffix))
	if err != nil {
		c.t.Fatal(err)
	}
	var n int64
	for _, name := range names {
		fi, err := os.Stat(name)
		if err != nil {
			c.t.Fatal(err)
		}
		n += fi.Size()
	}
	return n
}

// TestStoreMatchesModel runs random interleavings of Put, Get, Quarantine,
// sweep (random budgets) and close-and-reopen against a map.
// Contents must match exactly, evicted and quarantined keys must stay
// misses across reopen, and after every sweep the segment files on disk
// must hold at most twice the live record bytes plus one record.
func TestStoreMatchesModel(t *testing.T) {
	const maxVal = 300
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := &cacheModel{t: t, dir: t.TempDir(), m: map[string]*modelEntry{}}
		c.open()
		pool := make([]string, 12)
		for i := range pool {
			pool[i] = keyN(i)
		}
		for step := 0; step < 400; step++ {
			key := pool[rng.Intn(len(pool))]
			switch op := rng.Intn(20); {
			case op < 8:
				val := make([]byte, rng.Intn(maxVal))
				rng.Read(val)
				if err := c.s.Put(key, val); err != nil {
					t.Fatal(err)
				}
				c.m[key] = &modelEntry{val: val, written: c.clock}
			case op < 13:
				got, ok, err := c.s.Get(key)
				if err != nil {
					t.Fatal(err)
				}
				want, live := c.m[key]
				if ok != live || live && !bytes.Equal(got, want.val) {
					t.Fatalf("seed %d step %d: Get(%s) = %v, want %v", seed, step, key[:8], ok, live)
				}
				if live {
					want.read = c.clock
				}
			case op < 15:
				want, live := c.m[key]
				if err := c.s.Quarantine(key); err != nil {
					t.Fatal(err)
				}
				if live {
					b, err := os.ReadFile(filepath.Join(c.dir, corruptDir, key+".json"))
					if err != nil || !bytes.Equal(b, want.val) {
						t.Fatalf("seed %d step %d: quarantined copy = %q (%v), want the value", seed, step, b, err)
					}
					delete(c.m, key)
				}
			case op < 18:
				vals, _ := c.liveBytes()
				budget := rng.Int63n(vals + 2)
				var evicted []string
				over := vals - budget
				for _, k := range c.evictionOrder() {
					if budget <= 0 || over <= 0 {
						break
					}
					evicted = append(evicted, k)
					over -= int64(len(c.m[k].val))
				}
				st, err := c.s.sweep(budget)
				if err != nil {
					t.Fatal(err)
				}
				if st.Evicted != len(evicted) {
					t.Fatalf("seed %d step %d: sweep to %d evicted %d, model %d", seed, step, budget, st.Evicted, len(evicted))
				}
				for _, k := range evicted {
					delete(c.m, k)
				}
				_, recs := c.liveBytes()
				if disk := c.segmentBytes(); disk > 2*recs+hdrSize+64+maxVal {
					t.Fatalf("seed %d step %d: %d segment bytes on disk for %d live record bytes", seed, step, disk, recs)
				}
			default:
				if err := c.s.Close(); err != nil {
					t.Fatal(err)
				}
				c.open()
			}
			c.check(step)
		}
		c.s.Close()
	}
}
