package experiment

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"sprinklers/internal/resultcache"
	"sprinklers/internal/stats"
)

// The reference envelope codecs: the whole envelope marshaled from, and
// unmarshaled into, a struct, the identity compared with reflect.DeepEqual.
// The byte-checking codecs in cache.go must agree with them on every entry
// they accept, and write the bytes these write.

type refCachedPoint struct {
	Identity resultcache.Identity `json:"identity"`
	Result   PointResult          `json:"result"`
}

type refCachedReplica struct {
	Identity resultcache.Identity `json:"identity"`
	Rep      int                  `json:"rep"`
	Point    Point                `json:"point"`
}

func refEncode(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func refDecodeCachedPoint(b []byte, id resultcache.Identity, key PointKey) (PointResult, bool) {
	var env refCachedPoint
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

func refDecodeCachedReplica(b []byte, id resultcache.Identity, rep int) (Point, bool) {
	var env refCachedReplica
	if err := json.Unmarshal(b, &env); err != nil {
		return Point{}, false
	}
	if env.Rep != rep || !reflect.DeepEqual(env.Identity, id) {
		return Point{}, false
	}
	return env.Point, true
}

// checkPointEnvelope decodes b with both codecs and requires an accepted,
// equal result, and that both encoders rebuild b byte for byte from it (b
// must have been stored under key's own labels).
func checkPointEnvelope(t *testing.T, b []byte, id resultcache.Identity, key PointKey) PointResult {
	t.Helper()
	_, canonical := id.KeyJSON()
	got, ok := decodeCachedPoint(b, canonical, key)
	want, wok := refDecodeCachedPoint(b, id, key)
	if !ok || !wok {
		t.Fatalf("%s: decoder accepted %v, reference accepted %v", key, ok, wok)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: decoded %+v, reference %+v", key, got, want)
	}
	if enc := encodeCachedPoint(canonical, want); !bytes.Equal(enc, b) {
		t.Fatalf("%s: encoder wrote\n%s\nthe stored entry is\n%s", key, enc, b)
	}
	if ref := refEncode(t, refCachedPoint{Identity: id, Result: want}); !bytes.Equal(ref, b) {
		t.Fatalf("%s: reference encoder wrote\n%s\nthe stored entry is\n%s", key, ref, b)
	}
	return got
}

// TestPointEnvelopeMatchesReference runs studies of every shape a cached
// point can take and checks each stored entry against the reference codec.
func TestPointEnvelopeMatchesReference(t *testing.T) {
	windowed := cacheSpec()
	windowed.Name, windowed.Loads, windowed.Windows = "windowed", []float64{0.6}, 4
	cases := []struct {
		name  string
		spec  Spec
		check func(t *testing.T, rs []PointResult)
	}{
		{"dense", cacheSpec(), nil},
		{"windowed", windowed, func(t *testing.T, rs []PointResult) {
			for _, r := range rs {
				if len(r.Windows) != 4 {
					t.Errorf("%s: %d windows, want 4", r.PointKey, len(r.Windows))
				}
			}
		}},
		{"scenario", flashSpec(), func(t *testing.T, rs []PointResult) {
			for _, r := range rs {
				if r.Scenario == "" || len(r.Windows) == 0 {
					t.Errorf("%s: not a windowed scenario point", r.PointKey)
				}
			}
		}},
		{"adaptive", adaptiveSpec(t), func(t *testing.T, rs []PointResult) {
			refined := 0
			for _, r := range rs {
				if r.RefineRound > 0 {
					refined++
				}
			}
			if refined == 0 {
				t.Error("no refined point was checked")
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			store, err := resultcache.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			recs, err := RunStudy(context.Background(), c.spec, StudyConfig{Cache: store})
			if err != nil {
				t.Fatal(err)
			}
			norm := c.spec.WithDefaults()
			var got []PointResult
			for _, rec := range recs {
				id := norm.PointIdentity(rec.PointKey)
				b, ok, err := store.Get(pointKey(id))
				if err != nil || !ok {
					t.Fatalf("%s: no cache entry (err %v)", rec.PointKey, err)
				}
				dec := checkPointEnvelope(t, b, id, rec.PointKey)
				if !reflect.DeepEqual(dec, rec) {
					t.Errorf("%s: decoded %+v, recorded %+v", rec.PointKey, dec, rec)
				}
				got = append(got, dec)
			}
			if c.check != nil {
				c.check(t, got)
			}
		})
	}
}

// TestReplicaEnvelopeMatchesReference: a replica envelope round-trips
// through the byte-checking codec exactly as through the reference.
func TestReplicaEnvelopeMatchesReference(t *testing.T) {
	spec := flashSpec().WithDefaults()
	key := spec.Points()[0]
	id := spec.PointIdentity(key)
	_, canonical := id.KeyJSON()
	for rep := range 2 {
		p, err := RunReplicaJob(context.Background(), spec, key, rep, 0, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		b := EncodeCachedReplica(canonical, rep, p)
		if ref := refEncode(t, refCachedReplica{Identity: id, Rep: rep, Point: p}); !bytes.Equal(ref, b) {
			t.Fatalf("rep %d: encoder wrote\n%s\nthe reference writes\n%s", rep, b, ref)
		}
		got, ok := DecodeCachedReplica(b, canonical, rep)
		want, wok := refDecodeCachedReplica(b, id, rep)
		if !ok || !wok || !reflect.DeepEqual(got, want) || len(got.Windows) == 0 {
			t.Fatalf("rep %d: decoded %v %+v, reference %v %+v", rep, ok, got, wok, want)
		}
	}
}

// envelopeMutations damage a valid envelope b, whose identity and value
// the given fields separate, in ways the byte check must reject.
func envelopeMutations(b []byte, fields string) map[string][]byte {
	head := len(envelopeHead)
	value := b[bytes.Index(b, []byte(fields))+len(fields) : len(b)-1]
	identity := b[head:bytes.Index(b, []byte(fields))]
	return map[string][]byte{
		"identity field changed": bytes.Replace(b, []byte(`"n":8,`), []byte(`"n":16,`), 1),
		"truncated":              b[:len(b)/2],
		"one trailing byte":      append(bytes.Clone(b), ' '),
		"whitespace inserted":    append([]byte(envelopeHead+" "), b[head:]...),
		"fields reordered": []byte(`{` + fields[1:] + string(value) +
			`,"identity":` + string(identity) + `}`),
	}
}

// TestMutatedPointEnvelopeIsQuarantined: every mutation reads as a miss;
// the study quarantines the entry, counts it in CacheCorrupt, recomputes
// the point and stores a valid entry in its place.
func TestMutatedPointEnvelopeIsQuarantined(t *testing.T) {
	spec := cacheSpec()
	spec.Algorithms, spec.Loads = Algs(Sprinklers), []float64{0.6}
	norm := spec.WithDefaults()
	pk := norm.Points()[0]
	id := norm.PointIdentity(pk)
	key, canonical := id.KeyJSON()

	dir := t.TempDir()
	store, err := resultcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := RunStudy(context.Background(), spec, StudyConfig{Cache: store})
	if err != nil {
		t.Fatal(err)
	}
	valid, _, err := store.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	muts := envelopeMutations(valid, pointFields)
	if bytes.Equal(muts["identity field changed"], valid) {
		t.Fatal("the identity mutation changed nothing")
	}
	for name, b := range muts {
		t.Run(name, func(t *testing.T) {
			if rec, ok := decodeCachedPoint(b, canonical, pk); ok {
				t.Fatalf("mutated envelope accepted: %+v", rec)
			}
			if err := store.Put(key, b); err != nil {
				t.Fatal(err)
			}
			var ctr Counters
			again, err := RunStudy(context.Background(), spec, StudyConfig{Cache: store, Counters: &ctr})
			if err != nil {
				t.Fatal(err)
			}
			if c := ctr.Snapshot(); c.CacheCorrupt != 1 || c.CacheHits != 0 || c.PointsComputed != 1 {
				t.Errorf("counters %+v, want 1 corrupt, 0 hits, 1 computed", c)
			}
			if !reflect.DeepEqual(again, clean) {
				t.Errorf("recomputed %+v, want %+v", again, clean)
			}
			if q, err := os.ReadFile(filepath.Join(dir, "corrupt", key+".json")); err != nil || !bytes.Equal(q, b) {
				t.Errorf("quarantined entry %q (err %v), want the mutated bytes", q, err)
			}
			if b, _, _ := store.Get(key); !bytes.Equal(b, valid) {
				t.Errorf("re-stored entry\n%s\nwant\n%s", b, valid)
			}
		})
	}
}

// TestMutatedReplicaEnvelopeIsMiss: the same mutations, and an envelope of
// another replica, never decode as the addressed replica.
func TestMutatedReplicaEnvelopeIsMiss(t *testing.T) {
	spec := cacheSpec().WithDefaults()
	pk := spec.Points()[0]
	_, canonical := spec.PointIdentity(pk).KeyJSON()
	p, err := RunReplicaJob(context.Background(), spec, pk, 1, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	valid := EncodeCachedReplica(canonical, 1, p)
	muts := envelopeMutations(valid, replicaFields(1))
	muts["wrong rep"] = EncodeCachedReplica(canonical, 0, p)
	for name, b := range muts {
		if got, ok := DecodeCachedReplica(b, canonical, 1); ok {
			t.Errorf("%s: mutated envelope accepted: %+v", name, got)
		}
	}
	if _, ok := DecodeCachedReplica(valid, canonical, 1); !ok {
		t.Error("the unmutated envelope is rejected")
	}
}

// fuzzEnvelopeRep is the replica index FuzzCachedEnvelope addresses.
const fuzzEnvelopeRep = 1

// fuzzEnvelope returns the identity FuzzCachedEnvelope addresses and one
// valid envelope of each kind for it.
func fuzzEnvelope() (PointKey, resultcache.Identity, []byte, []byte) {
	spec := flashSpec().WithDefaults()
	pk := spec.Points()[1]
	id := spec.PointIdentity(pk)
	_, canonical := id.KeyJSON()
	w := []stats.WindowPoint{{Window: 0, Start: 0, End: 500, MeanDelay: 3.5, P99Delay: 9, Throughput: 1, Offered: 40, Delivered: 40, Backlog: 1.5}}
	rec := PointResult{PointKey: pk, Replicas: 2, MeanDelay: 4.25, DelayCI95: 0.5, P99Delay: 11, MaxDelay: 17,
		Throughput: 0.99, Delivered: 1234, Windows: w, TwinDelay: 4, TwinDivergence: 0.06, RefineRound: 1}
	p := Point{Algorithm: Sprinklers, Load: pk.Load, MeanDelay: 4.5, Throughput: 0.98, Delivered: 600, Windows: w}
	return pk, id, encodeCachedPoint(canonical, rec), EncodeCachedReplica(canonical, fuzzEnvelopeRep, p)
}

// FuzzCachedEnvelope: the byte-checking decoders never panic, and every
// entry they accept the reference decoders accept too, with an equal
// value.
func FuzzCachedEnvelope(f *testing.F) {
	pk, id, point, replica := fuzzEnvelope()
	_, canonical := id.KeyJSON()
	// The valid seeds must decode, or the property below checks nothing.
	if _, ok := decodeCachedPoint(point, canonical, pk); !ok {
		f.Fatal("the point envelope seed does not decode")
	}
	if _, ok := DecodeCachedReplica(replica, canonical, fuzzEnvelopeRep); !ok {
		f.Fatal("the replica envelope seed does not decode")
	}
	seeds := []struct {
		b      []byte
		fields string
	}{{point, pointFields}, {replica, replicaFields(fuzzEnvelopeRep)}}
	for _, s := range seeds {
		f.Add(s.b)
		for _, m := range envelopeMutations(s.b, s.fields) {
			f.Add(m)
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if got, ok := decodeCachedPoint(b, canonical, pk); ok {
			want, wok := refDecodeCachedPoint(b, id, pk)
			if !wok || !reflect.DeepEqual(got, want) {
				t.Fatalf("point envelope %q: decoded %+v, reference %v %+v", b, got, wok, want)
			}
		}
		if got, ok := DecodeCachedReplica(b, canonical, fuzzEnvelopeRep); ok {
			want, wok := refDecodeCachedReplica(b, id, fuzzEnvelopeRep)
			if !wok || !reflect.DeepEqual(got, want) {
				t.Fatalf("replica envelope %q: decoded %+v, reference %v %+v", b, got, wok, want)
			}
		}
	})
}
