package resultcache

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// These tests are written against the segment format: they damage a closed
// store's segment file the way a crash or bit rot would and reopen it.
//
// Two hand-applied mutations were run against them:
//   - skipping the CRC comparison in replaySegment: TestFlippedValueByte
//     fails (the damaged value is served as a hit). The torn-tail test does
//     not notice, since a cut record is already short of its lengths.
//   - publishing the index entry before the append's write, with the write
//     done after the lock is released: TestGetNeverSeesUnwrittenRecord
//     fails on every run (a Get reads past the end of the segment).
//     TestStoreConcurrentAccess catches it only now and then (one run in
//     four at best, none in four -race runs of a recheck): the race
//     detector stays quiet, as the torn read goes through the file, not
//     through memory. That is why the dedicated test exists.

// fillSegment writes n entries of distinct sizes to a fresh store in dir,
// closes it and returns the entries in write order.
func fillSegment(t *testing.T, dir string, n int) (keys []string, vals [][]byte) {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		keys = append(keys, keyN(i))
		vals = append(vals, []byte(fmt.Sprintf(`{"i":%d,"pad":%q}`, i, strings.Repeat("v", 10*i))))
		if err := s.Put(keys[i], vals[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return keys, vals
}

// onlySegment returns the path and bytes of the one segment that holds
// records in dir.
func onlySegment(t *testing.T, dir string) (string, []byte) {
	t.Helper()
	path := filepath.Join(dir, segName(0))
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, b
}

// checkReopened opens dir and checks that exactly the first intact entries
// read back, byte for byte, and every later key is a miss.
func checkReopened(t *testing.T, dir string, keys []string, vals [][]byte, intact int) *Store {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		got, ok, err := s.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		if i < intact && (!ok || !bytes.Equal(got, vals[i])) {
			t.Fatalf("entry %d = %q ok %v, want %q", i, got, ok, vals[i])
		}
		if i >= intact && ok {
			t.Fatalf("entry %d past the damage read back as %q", i, got)
		}
	}
	return s
}

// recordStart returns the offset of record i in a segment of fillSegment's
// entries.
func recordStart(keys []string, vals [][]byte, i int) int {
	off := 0
	for j := 0; j < i; j++ {
		off += hdrSize + len(keys[j]) + len(vals[j])
	}
	return off
}

// TestTornTailAtEveryOffset: a kill -9 mid-append leaves a prefix of the
// last record. Cut the segment at every byte offset inside that record:
// every earlier entry must read back exact, the torn key must be a miss,
// and the reopened store must accept and serve new writes.
func TestTornTailAtEveryOffset(t *testing.T) {
	src := t.TempDir()
	keys, vals := fillSegment(t, src, 4)
	_, seg := onlySegment(t, src)
	last := recordStart(keys, vals, 3)
	if last+hdrSize+len(keys[3])+len(vals[3]) != len(seg) {
		t.Fatalf("segment is %d bytes, want %d records of the documented layout", len(seg), len(keys))
	}
	for cut := last; cut < len(seg); cut++ {
		dir := filepath.Join(t.TempDir(), "c")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, segName(0)), seg[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s := checkReopened(t, dir, keys, vals, 3)
		fresh := []byte(`{"after":"crash"}`)
		if err := s.Put(keys[3], fresh); err != nil {
			t.Fatal(err)
		}
		if got, ok, err := s.Get(keys[3]); err != nil || !ok || !bytes.Equal(got, fresh) {
			t.Fatalf("cut %d: Put after reopen read back %q ok %v err %v", cut, got, ok, err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		// The rewrite went to the reopened store's own segment and
		// survives another reopen; the torn segment was left as it was.
		s = checkReopened(t, dir, keys[:3], vals[:3], 3)
		if got, ok, _ := s.Get(keys[3]); !ok || !bytes.Equal(got, fresh) {
			t.Fatalf("cut %d: rewritten entry lost across reopen", cut)
		}
		s.Close()
		if fi, err := os.Stat(filepath.Join(dir, segName(0))); err != nil || fi.Size() != int64(cut) {
			t.Fatalf("cut %d: Open changed a segment it did not create", cut)
		}
	}
}

// TestFlippedValueByte: bit rot inside a stored value fails the record's
// CRC, and replay of that segment stops there.
func TestFlippedValueByte(t *testing.T) {
	dir := t.TempDir()
	keys, vals := fillSegment(t, dir, 4)
	path, seg := onlySegment(t, dir)
	seg[recordStart(keys, vals, 2)+hdrSize+len(keys[2])+3] ^= 0x20
	if err := os.WriteFile(path, seg, 0o644); err != nil {
		t.Fatal(err)
	}
	checkReopened(t, dir, keys, vals, 2).Close()
}

// TestInflatedLengthRejected: a value length pointing past end-of-file is
// rejected before anything is allocated for it.
func TestInflatedLengthRejected(t *testing.T) {
	dir := t.TempDir()
	keys, vals := fillSegment(t, dir, 4)
	path, seg := onlySegment(t, dir)
	binary.LittleEndian.PutUint32(seg[recordStart(keys, vals, 1)+12:], 1<<30)
	if err := os.WriteFile(path, seg, 0o644); err != nil {
		t.Fatal(err)
	}
	checkReopened(t, dir, keys, vals, 1).Close()
}

// TestSecondOpenFails: one live Store per directory; the second opener
// gets an error naming the directory, and can open once the first closes.
func TestSecondOpenFails(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), dir) {
		t.Fatalf("second Open = %v, want an error naming %s", err, dir)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err = Open(dir)
	if err != nil {
		t.Fatalf("Open after Close: %v", err)
	}
	s.Close()
}

// TestCloseThenOpenSeesEverything: puts, an overwrite, a quarantine and an
// eviction all survive a clean close and reopen.
func TestCloseThenOpenSeesEverything(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]byte{}
	for i := 0; i < 6; i++ {
		k := putSized(t, s, i, 10*(i+1), time.Duration(6-i)*time.Minute)
		want[k] = bytes.Repeat([]byte("x"), 10*(i+1))
	}
	over := []byte(`{"overwritten":true}`)
	if err := s.Put(keyN(0), over); err != nil {
		t.Fatal(err)
	}
	want[keyN(0)] = over
	if err := s.Quarantine(keyN(1)); err != nil {
		t.Fatal(err)
	}
	delete(want, keyN(1))
	// keyN(0) was rewritten just now and keyN(1) is quarantined, so keyN(2)
	// is the least recently used.
	if st, err := s.sweep(s.live - 1); err != nil || st.Evicted != 1 {
		t.Fatalf("sweep = %+v, %v; want one eviction", st, err)
	}
	delete(want, keyN(2))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	closedOps := map[string]error{
		"Put":        s.Put(keyN(0), over),
		"Quarantine": s.Quarantine(keyN(0)),
	}
	_, _, closedOps["Get"] = s.Get(keyN(0))
	_, closedOps["sweep"] = s.sweep(1)
	_, closedOps["Size"] = s.Size()
	_, closedOps["Len"] = s.Len()
	for op, err := range closedOps {
		if err == nil {
			t.Errorf("%s on a closed store succeeded", op)
		}
	}

	s, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if n, _ := s.Len(); n != len(want) {
		t.Fatalf("Len after reopen = %d, want %d", n, len(want))
	}
	for i := 0; i < 6; i++ {
		got, ok, err := s.Get(keyN(i))
		if err != nil {
			t.Fatal(err)
		}
		if w, live := want[keyN(i)]; ok != live || !bytes.Equal(got, w) {
			t.Fatalf("entry %d after reopen = %q ok %v, want %q present %v", i, got, ok, w, live)
		}
	}
}

// TestReopenCyclesKeepTwoSegments: each Open starts a segment of its own,
// and replay deletes the ones that end up with no record, so 20 reopens
// that write nothing leave the filled segment and the live store's own,
// and the store holds only those open. 20 more reopens that each Put a
// new key keep a segment each until Open compacts past maxSegments, so
// the files stay bounded too. Every entry survives each cycle.
func TestReopenCyclesKeepTwoSegments(t *testing.T) {
	dir := t.TempDir()
	keys, vals := fillSegment(t, dir, 4)
	for cycle := 0; cycle < 40; cycle++ {
		s := checkReopened(t, dir, keys, vals, len(keys))
		names, err := filepath.Glob(filepath.Join(dir, segPrefix+"*"+segSuffix))
		if err != nil {
			t.Fatal(err)
		}
		want := 2
		if cycle >= 20 {
			want = maxSegments
		}
		if len(names) > want || len(s.segs) > want {
			t.Fatalf("cycle %d: %d segment files, %d open, want at most %d: %v", cycle, len(names), len(s.segs), want, names)
		}
		if cycle >= 20 {
			keys = append(keys, keyN(len(keys)))
			vals = append(vals, []byte(fmt.Sprintf(`{"cycle":%d}`, cycle)))
			if err := s.Put(keys[len(keys)-1], vals[len(vals)-1]); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	checkReopened(t, dir, keys, vals, len(keys)).Close()
}

// TestGetNeverSeesUnwrittenRecord: a reader polling keys as a writer puts
// them must see each one either absent or complete — the index may point
// at a record only once its write has returned.
func TestGetNeverSeesUnwrittenRecord(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const n = 2000
	val := func(i int) []byte { return []byte(fmt.Sprintf(`{"entry":%d,"pad":%q}`, i, strings.Repeat("p", 200))) }
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			if err := s.Put(keyN(i), val(i)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < n; {
		select {
		case <-done:
			i = n
		default:
		}
		got, ok, err := s.Get(keyN(i))
		if err != nil || ok && !bytes.Equal(got, val(i)) {
			t.Fatalf("Get(%d) during its Put = %q ok %v err %v", i, got, ok, err)
		}
		if ok {
			i++
		}
	}
}

// TestOpenSkipsForeignFiles: files that only look like segments, and the
// per-file entries of the earlier layout, are neither read nor touched.
func TestOpenSkipsForeignFiles(t *testing.T) {
	dir := t.TempDir()
	legacy := filepath.Join(dir, keyN(0)[:2], keyN(0)+".json")
	for _, name := range []string{legacy, filepath.Join(dir, "seg-notanumber.log")} {
		if err := os.MkdirAll(filepath.Dir(name), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(name, []byte(`{"old":true}`), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if n, _ := s.Len(); n != 0 || present(t, s, keyN(0)) {
		t.Fatalf("Open indexed %d foreign entries", n)
	}
	if _, err := os.Stat(legacy); err != nil {
		t.Fatalf("legacy entry touched: %v", err)
	}
	if _, err := Open(""); err == nil {
		t.Fatal("Open accepted an empty directory")
	}
	if _, err := Open(legacy); err == nil {
		t.Fatal("Open accepted a regular file as its directory")
	}
}
