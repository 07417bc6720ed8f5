package resultcache

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Store is an on-disk content-addressed blob store. Keys are the hex
// SHA-256 strings produced by Identity.Key; values are whatever the caller
// serialized (the experiment layer stores an {identity, result} envelope).
//
// Entries live in append-only segment files (seg-<n>.log) under the cache
// root. A record is a fixed header — CRC-32C over everything after it,
// kind (put or tombstone), key length, value length, write time — then the
// key, then the value. Each Open appends to a segment of its own, a Put is
// one write(2), and the in-memory index points at a record only after that
// write returns, so a concurrent Get never observes a torn value. Open
// replays every segment in name order: later records win, tombstones
// delete, and a segment's replay stops at its first short or CRC-failing
// record, which is where a kill -9 mid-append leaves one. Nothing is
// fsynced: a crash loses at most the record being written, and every entry
// is recomputable anyway. An exclusive flock on <dir>/LOCK keeps the
// directory to one Store at a time; the kernel drops it when the process
// dies. Per-file entries (xx/<key>.json) of the earlier layout are ignored.
// A Store is safe for concurrent use by multiple goroutines.
type Store struct {
	dir  string
	lock *os.File
	// now stamps writes and reads; tests swap it for a fake clock.
	now func() time.Time

	// puts counts successful writes since Open, for the daemon's metrics.
	puts atomic.Int64
	// corrupts counts entries quarantined since Open (cache_corrupt_total).
	corrupts atomic.Int64

	// evictions counts entries evicted by sweeps since Open.
	evictions atomic.Int64

	// mu serializes appends and guards everything below.
	mu     sync.Mutex
	segs   []*segment // replay order; the last one is appended to
	index  map[string]entry
	live   int64 // value bytes of live entries (Size)
	liveRc int64 // record bytes of live entries
	disk   int64 // bytes of all segment files
	buf    []byte
	closed bool
}

// segment is one open seg-<n>.log file.
type segment struct {
	f    *os.File
	seq  uint64
	size int64 // bytes of valid records; appends go here
}

// entry locates one live value.
type entry struct {
	seg     *segment
	off     int64 // of the value
	size    int64
	written int64 // unix ns
	// read is this process's last read (unix ns), feeding LRU eviction.
	// Entries never read since Open order by their write time, which orders
	// them correctly relative to each other and pessimistically relative
	// to read entries.
	read int64
}

func (e entry) recordBytes(key string) int64 { return hdrSize + int64(len(key)) + e.size }

// Record layout: crc(4) kind(4) keyLen(4) valLen(4) written(8).
const (
	hdrSize      = 24
	kindPut      = 1
	kindTomb     = 2
	segPrefix    = "seg-"
	segSuffix    = ".log"
	lockFile     = "LOCK"
	maxRecordLen = 1 << 30
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// corruptDir is the subdirectory quarantined values are copied to. It is
// excluded from sweeps and size accounting.
const corruptDir = "corrupt"

// errClosed is returned by every operation on a closed Store.
var errClosed = errors.New("resultcache: store is closed")

// Open creates (if needed) the store rooted at dir, locks it against other
// openers, replays its segments and starts a fresh segment for this
// Store's writes. A directory another live Store holds is an error.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("resultcache: empty cache directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("resultcache: %w", err)
	}
	lock, err := os.OpenFile(filepath.Join(dir, lockFile), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("resultcache: %w", err)
	}
	if err := syscall.Flock(int(lock.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		lock.Close()
		if errors.Is(err, syscall.EWOULDBLOCK) {
			return nil, fmt.Errorf("resultcache: cache directory %s is in use by another store", dir)
		}
		return nil, fmt.Errorf("resultcache: locking %s: %w", dir, err)
	}
	s := &Store{dir: dir, lock: lock, now: time.Now, index: map[string]entry{}}
	if err := s.replay(); err != nil {
		s.Close()
		return nil, err
	}
	if err := s.addSegment(); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// Close releases the store's files and its directory lock. Operations on a
// closed Store return an error; closing twice is a no-op.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var first error
	for _, g := range s.segs {
		if err := g.f.Close(); err != nil && first == nil {
			first = err
		}
	}
	s.segs, s.index = nil, nil
	if err := s.lock.Close(); err != nil && first == nil {
		first = err
	}
	return first
}

// validKey rejects anything that is not a plain hex content address —
// nothing with path structure can ever reach the filesystem layer.
func validKey(key string) error {
	if len(key) < 8 {
		return fmt.Errorf("resultcache: key %q too short", key)
	}
	for _, c := range key {
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return fmt.Errorf("resultcache: key %q is not lowercase hex", key)
		}
	}
	return nil
}

// segName is the file name of segment seq; names sort in replay order.
func segName(seq uint64) string { return fmt.Sprintf("%s%016x%s", segPrefix, seq, segSuffix) }

// replay opens every segment in name order and rebuilds the index.
func (s *Store) replay() error {
	names, err := filepath.Glob(filepath.Join(s.dir, segPrefix+"*"+segSuffix))
	if err != nil {
		return err
	}
	sort.Strings(names)
	for _, name := range names {
		base := filepath.Base(name)
		seq, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(base, segPrefix), segSuffix), 16, 64)
		if err != nil || segName(seq) != base {
			continue
		}
		f, err := os.Open(name)
		if err != nil {
			return fmt.Errorf("resultcache: %w", err)
		}
		g := &segment{f: f, seq: seq}
		s.segs = append(s.segs, g)
		if err := s.replaySegment(g); err != nil {
			return fmt.Errorf("resultcache: replaying %s: %w", name, err)
		}
	}
	return nil
}

// replaySegment applies g's records to the index up to its first short or
// corrupt one, leaving g.size at the end of the valid prefix.
func (s *Store) replaySegment(g *segment) error {
	fi, err := g.f.Stat()
	if err != nil {
		return err
	}
	s.disk += fi.Size()
	r := bufio.NewReaderSize(g.f, 1<<16)
	var hdr [hdrSize]byte
	var body []byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return endOfLog(err) // clean end or torn header
		}
		kind := binary.LittleEndian.Uint32(hdr[4:])
		klen := int64(binary.LittleEndian.Uint32(hdr[8:]))
		vlen := int64(binary.LittleEndian.Uint32(hdr[12:]))
		n := klen + vlen
		if kind != kindPut && kind != kindTomb || g.size+hdrSize+n > fi.Size() {
			return nil
		}
		if int64(cap(body)) < n {
			body = make([]byte, n)
		}
		body = body[:n]
		if _, err := io.ReadFull(r, body); err != nil {
			return endOfLog(err)
		}
		crc := crc32.Update(crc32.Checksum(hdr[4:], crcTable), crcTable, body)
		if crc != binary.LittleEndian.Uint32(hdr[:4]) {
			return nil
		}
		key := string(body[:klen])
		s.unindex(key)
		if kind == kindPut {
			s.indexPut(key, entry{
				seg: g, off: g.size + hdrSize + klen, size: vlen,
				written: int64(binary.LittleEndian.Uint64(hdr[16:])),
			})
		}
		g.size += hdrSize + n
	}
}

// endOfLog ends a replay quietly at a short read and loudly at an I/O error.
func endOfLog(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return nil
	}
	return err
}

// indexPut and unindex keep the index and its byte totals in step.
func (s *Store) indexPut(key string, e entry) {
	s.index[key] = e
	s.live += e.size
	s.liveRc += e.recordBytes(key)
}

func (s *Store) unindex(key string) {
	if e, ok := s.index[key]; ok {
		delete(s.index, key)
		s.live -= e.size
		s.liveRc -= e.recordBytes(key)
	}
}

// addSegment creates the next segment and makes it the append target.
func (s *Store) addSegment() error {
	var seq uint64
	if n := len(s.segs); n > 0 {
		seq = s.segs[n-1].seq + 1
	}
	f, err := os.OpenFile(filepath.Join(s.dir, segName(seq)), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("resultcache: %w", err)
	}
	s.segs = append(s.segs, &segment{f: f, seq: seq})
	return nil
}

// appendRecord writes one record at the end of g with a single write and
// returns the value's offset. A failed write does not advance g.size, so
// the next append overwrites whatever part of the record reached the disk.
// Call with s.mu held.
func (s *Store) appendRecord(g *segment, kind uint32, key string, val []byte, written int64) (int64, error) {
	if int64(len(key))+int64(len(val)) > maxRecordLen {
		return 0, fmt.Errorf("resultcache: %d-byte value too large", len(val))
	}
	b := append(s.buf[:0], make([]byte, hdrSize)...)
	binary.LittleEndian.PutUint32(b[4:], kind)
	binary.LittleEndian.PutUint32(b[8:], uint32(len(key)))
	binary.LittleEndian.PutUint32(b[12:], uint32(len(val)))
	binary.LittleEndian.PutUint64(b[16:], uint64(written))
	b = append(append(b, key...), val...)
	binary.LittleEndian.PutUint32(b, crc32.Checksum(b[4:], crcTable))
	s.buf = b
	if _, err := g.f.WriteAt(b, g.size); err != nil {
		return 0, err
	}
	off := g.size + hdrSize + int64(len(key))
	g.size += int64(len(b))
	s.disk += int64(len(b))
	return off, nil
}

// active is the segment appends go to. Call with s.mu held.
func (s *Store) active() *segment { return s.segs[len(s.segs)-1] }

// Get returns the value stored under key, with ok reporting whether the
// key is present. A malformed key is an error, not a miss.
func (s *Store) Get(key string) ([]byte, bool, error) {
	if err := validKey(key); err != nil {
		return nil, false, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, false, errClosed
	}
	e, ok := s.index[key]
	if !ok {
		return nil, false, nil
	}
	b, err := s.read(e)
	if err != nil {
		return nil, false, err
	}
	e.read = s.now().UnixNano()
	s.index[key] = e
	return b, true, nil
}

// read returns e's value bytes. Call with s.mu held.
func (s *Store) read(e entry) ([]byte, error) {
	b := make([]byte, e.size)
	if _, err := e.seg.f.ReadAt(b, e.off); err != nil {
		return nil, fmt.Errorf("resultcache: %w", err)
	}
	return b, nil
}

// Put stores val under key with one append. The index points at the new
// record only once the write has returned, so a crashed or racing writer
// can never leave a partial entry where Get would find it.
func (s *Store) Put(key string, val []byte) error {
	if err := validKey(key); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errClosed
	}
	g, now := s.active(), s.now().UnixNano()
	off, err := s.appendRecord(g, kindPut, key, val, now)
	if err != nil {
		return err
	}
	s.unindex(key)
	s.indexPut(key, entry{seg: g, off: off, size: int64(len(val)), written: now})
	s.puts.Add(1)
	return nil
}

// Puts reports the number of successful writes since Open.
func (s *Store) Puts() int64 { return s.puts.Load() }

// remove appends a tombstone for key and drops it from the index. Call
// with s.mu held.
func (s *Store) remove(key string) error {
	if _, err := s.appendRecord(s.active(), kindTomb, key, nil, s.now().UnixNano()); err != nil {
		return err
	}
	s.unindex(key)
	return nil
}

// Quarantine copies the value stored under key to corrupt/<key>.json and
// deletes the entry: the bytes stay available for a post-mortem, the key
// reads as a miss from then on (across restarts too), and Corrupts counts
// the event. Quarantining an absent key is a no-op. Callers invoke it when
// an entry fails envelope or identity validation on read, so a corrupt
// entry costs one recomputation, never a failed study.
func (s *Store) Quarantine(key string) error {
	if err := validKey(key); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errClosed
	}
	e, ok := s.index[key]
	if !ok {
		return nil
	}
	b, err := s.read(e)
	if err != nil {
		return err
	}
	dst := filepath.Join(s.dir, corruptDir)
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dst, key+".json"), b, 0o644); err != nil {
		return err
	}
	if err := s.remove(key); err != nil {
		return err
	}
	s.corrupts.Add(1)
	return nil
}

// Corrupts reports the number of entries quarantined since Open.
func (s *Store) Corrupts() int64 { return s.corrupts.Load() }

// Size returns the total value bytes of live cache entries (quarantined
// entries excluded).
func (s *Store) Size() (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, errClosed
	}
	return s.live, nil
}
