package store

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Config sizes a Store. Dir is required; everything else has a usable
// default.
type Config struct {
	// Dir is the store root. Three subdirectories are managed under it:
	// objects/ (published entries), tmp/ (in-flight writes, cleaned at
	// every Open), quarantine/ (entries that failed verification, kept
	// for post-mortem instead of deleted).
	Dir string

	// MaxBytes bounds the published entries' total size; the least
	// recently used entries are evicted to respect it. 0 = unbounded.
	MaxBytes int64

	// QueueDepth bounds the write-behind queue. The hot path never
	// blocks on disk: a full queue sheds the write (counted) and the
	// artifact simply stays memory-only. 0 means 256.
	QueueDepth int

	// FS is the filesystem implementation; nil means the real one.
	FS FS
}

// entryMeta is the in-memory index record of one published entry.
type entryMeta struct {
	name     string // file name under objects/
	size     int64  // on-disk frame size
	lastUsed int64  // logical access clock, drives LRU eviction
	warm     bool   // loaded at Open or imported — predates this process's work
}

// writeReq is one unit of write-behind work; a non-nil flush is a
// barrier request instead (closed when the writer reaches it).
type writeReq struct {
	key     string
	payload []byte
	flush   chan struct{}
}

// Store is a crash-safe, content-addressed artifact store. Get/Put are
// safe for concurrent use; Put is asynchronous (write-behind through a
// bounded queue) so callers on the serving hot path never wait on
// disk. Every failure — I/O errors, corrupt entries, a full queue — is
// counted and degrades to a cache miss; no store condition is ever an
// error for the caller.
type Store struct {
	fs                           FS
	dir, objDir, tmpDir, quarDir string
	maxBytes                     int64

	mu         sync.Mutex
	index      map[string]*entryMeta
	pending    map[string]struct{} // keys queued but not yet published
	totalBytes int64
	clock      int64
	closed     bool

	queue      chan writeReq
	writerDone chan struct{}
	tmpSeq     atomic.Uint64

	hits          atomic.Uint64
	warmHits      atomic.Uint64
	misses        atomic.Uint64
	writes        atomic.Uint64
	errors        atomic.Uint64
	corrupt       atomic.Uint64
	shed          atomic.Uint64
	evictions     atomic.Uint64
	imported      atomic.Uint64
	importSkipped atomic.Uint64
}

// Stats is a point-in-time snapshot of the store's counters; the
// daemon renders it as the shelleyd_store_* metric family.
type Stats struct {
	// Entries and Bytes describe the published index.
	Entries int
	Bytes   int64

	// Hits counts Gets served from disk; WarmHits the subset served
	// from entries that predate this process (warm-boot reuse, the
	// whole point of the store). Misses counts everything else,
	// including reads degraded by I/O errors or corruption.
	Hits, WarmHits, Misses uint64

	// Writes counts entries published; Shed write-behind requests
	// dropped on a full queue; Evictions entries removed for MaxBytes.
	Writes, Shed, Evictions uint64

	// Errors counts failed filesystem operations (one per failed call);
	// Corrupt counts entries that failed frame verification and were
	// quarantined. Either kind degrades to recompute-and-serve.
	Errors, Corrupt uint64

	// Imported/ImportSkipped count snapshot-import outcomes.
	Imported, ImportSkipped uint64
}

// Open builds (or reopens) the store rooted at cfg.Dir: leftover
// in-flight temp files from a previous crash are discarded, every
// published entry is read back and verified — corrupt, truncated, or
// future-versioned entries are quarantined and counted — and the
// survivors become the warm index, LRU-ordered by file mtime.
func Open(cfg Config) (*Store, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("store: Config.Dir is required")
	}
	fsys := cfg.FS
	if fsys == nil {
		fsys = OSFS{}
	}
	depth := cfg.QueueDepth
	if depth <= 0 {
		depth = 256
	}
	s := &Store{
		fs:         fsys,
		dir:        cfg.Dir,
		objDir:     join(cfg.Dir, "objects"),
		tmpDir:     join(cfg.Dir, "tmp"),
		quarDir:    join(cfg.Dir, "quarantine"),
		maxBytes:   cfg.MaxBytes,
		index:      make(map[string]*entryMeta),
		pending:    make(map[string]struct{}),
		queue:      make(chan writeReq, depth),
		writerDone: make(chan struct{}),
	}
	for _, d := range []string{s.objDir, s.tmpDir, s.quarDir} {
		if err := fsys.MkdirAll(d); err != nil {
			return nil, fmt.Errorf("store: creating %s: %w", d, err)
		}
	}
	// A temp file is an uncommitted write from a crashed process: by
	// the publish protocol it was never renamed into objects/, so it is
	// garbage by construction.
	if names, err := fsys.ReadDir(s.tmpDir); err == nil {
		for _, name := range names {
			if err := fsys.Remove(join(s.tmpDir, name)); err != nil {
				s.errors.Add(1)
			}
		}
	} else {
		s.errors.Add(1)
	}
	if err := s.scan(); err != nil {
		return nil, err
	}
	go s.writer()
	return s, nil
}

// scan verifies every published entry and builds the warm index.
func (s *Store) scan() error {
	names, err := s.fs.ReadDir(s.objDir)
	if err != nil {
		return fmt.Errorf("store: scanning %s: %w", s.objDir, err)
	}
	type found struct {
		key, name string
		size      int64
		mtime     time.Time
	}
	var entries []found
	for _, name := range names {
		path := join(s.objDir, name)
		raw, err := s.fs.ReadFile(path)
		if err != nil {
			// Unreadable is not corrupt: leave the file for a later
			// attempt, count the failed operation, serve without it.
			s.errors.Add(1)
			continue
		}
		key, _, err := Decode(raw)
		if err != nil {
			s.corrupt.Add(1)
			s.quarantine(name)
			continue
		}
		var mtime time.Time
		if _, mt, err := s.fs.Stat(path); err == nil {
			mtime = mt
		} else {
			s.errors.Add(1)
		}
		entries = append(entries, found{key: key, name: name, size: int64(len(raw)), mtime: mtime})
	}
	// Oldest mtime gets the oldest access tick, so boot-time LRU order
	// approximates the previous process's recency.
	sort.Slice(entries, func(i, j int) bool { return entries[i].mtime.Before(entries[j].mtime) })
	s.mu.Lock()
	for _, e := range entries {
		s.clock++
		s.index[e.key] = &entryMeta{name: e.name, size: e.size, lastUsed: s.clock, warm: true}
		s.totalBytes += e.size
	}
	victims := s.evictLocked()
	s.mu.Unlock()
	s.removeFiles(victims)
	return nil
}

// entryName is the stable file name of a key: keys are arbitrary byte
// strings (they embed NUL-separated cache-key structure), so the name
// is their hash, and the key itself lives inside the frame.
func entryName(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:]) + ".art"
}

// Get returns the stored payload for key. Every failure mode — absent,
// unreadable, corrupt — is a miss: the caller recomputes, the store
// counts.
func (s *Store) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	m, ok := s.index[key]
	if !ok {
		s.mu.Unlock()
		s.misses.Add(1)
		return nil, false
	}
	s.clock++
	m.lastUsed = s.clock
	name, warm := m.name, m.warm
	s.mu.Unlock()

	raw, err := s.fs.ReadFile(join(s.objDir, name))
	if err != nil {
		// Transient or injected read failure: keep the entry indexed (a
		// later read may succeed), count, degrade to recompute.
		s.errors.Add(1)
		s.misses.Add(1)
		return nil, false
	}
	gotKey, payload, err := Decode(raw)
	if err != nil || gotKey != key {
		// The frame is damaged (or a hash collision planted a foreign
		// key, which verification treats the same way): quarantine it so
		// it is never consulted again, and never poisons a response.
		s.corrupt.Add(1)
		s.mu.Lock()
		if cur, ok := s.index[key]; ok && cur.name == name {
			delete(s.index, key)
			s.totalBytes -= cur.size
		}
		s.mu.Unlock()
		s.quarantine(name)
		s.misses.Add(1)
		return nil, false
	}
	s.hits.Add(1)
	if warm {
		s.warmHits.Add(1)
	}
	return payload, true
}

// Put schedules key→payload for write-behind persistence. It never
// blocks: a duplicate (already published or already queued) is a
// no-op — entries are content-addressed, so rewriting is pure waste —
// and a full queue sheds the request with a counter instead of making
// the caller wait on disk.
func (s *Store) Put(key string, payload []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	if _, ok := s.index[key]; ok {
		return
	}
	if _, ok := s.pending[key]; ok {
		return
	}
	select {
	case s.queue <- writeReq{key: key, payload: payload}:
		s.pending[key] = struct{}{}
	default:
		s.shed.Add(1)
	}
}

// writer is the single background goroutine draining the write-behind
// queue; it exits when Close closes the queue, after draining what was
// already accepted.
func (s *Store) writer() {
	defer close(s.writerDone)
	for req := range s.queue {
		if req.flush != nil {
			close(req.flush)
			continue
		}
		s.write(req.key, req.payload, false)
		s.mu.Lock()
		delete(s.pending, req.key)
		s.mu.Unlock()
	}
}

// write publishes one entry with the crash-safe protocol: encode,
// write to a unique temp file (synced), atomically rename into
// objects/. Any failure is counted and the entry is simply not
// published — the artifact stays recomputable. Reports whether the
// entry was published.
func (s *Store) write(key string, payload []byte, warm bool) bool {
	blob := Encode(key, payload)
	name := entryName(key)
	tmp := join(s.tmpDir, fmt.Sprintf("%s.%d.tmp", name, s.tmpSeq.Add(1)))
	if err := s.fs.WriteFile(tmp, blob); err != nil {
		// The temp file (if any) is unreferenced garbage; the next Open
		// sweeps it. Removing it here would risk a second failure on a
		// disk that is already misbehaving.
		s.errors.Add(1)
		return false
	}
	if err := s.fs.Rename(tmp, join(s.objDir, name)); err != nil {
		s.errors.Add(1)
		if err := s.fs.Remove(tmp); err != nil {
			s.errors.Add(1)
		}
		return false
	}
	s.writes.Add(1)
	s.mu.Lock()
	if _, ok := s.index[key]; !ok {
		s.clock++
		s.index[key] = &entryMeta{name: name, size: int64(len(blob)), lastUsed: s.clock, warm: warm}
		s.totalBytes += int64(len(blob))
	}
	victims := s.evictLocked()
	s.mu.Unlock()
	s.removeFiles(victims)
	return true
}

// evictLocked (caller holds mu) drops least-recently-used entries until
// the byte bound holds, returning the file names to remove outside the
// lock.
func (s *Store) evictLocked() []string {
	if s.maxBytes <= 0 {
		return nil
	}
	var victims []string
	for s.totalBytes > s.maxBytes && len(s.index) > 0 {
		var oldKey string
		var old *entryMeta
		for k, m := range s.index {
			if old == nil || m.lastUsed < old.lastUsed {
				oldKey, old = k, m
			}
		}
		delete(s.index, oldKey)
		s.totalBytes -= old.size
		victims = append(victims, old.name)
		s.evictions.Add(1)
	}
	return victims
}

func (s *Store) removeFiles(names []string) {
	for _, name := range names {
		if err := s.fs.Remove(join(s.objDir, name)); err != nil {
			s.errors.Add(1)
		}
	}
}

// quarantine moves a damaged entry file out of objects/ so it is never
// read again, preserving the bytes for post-mortem. A failed move
// falls back to removal; a failed removal is only counted — the read
// path already dropped the entry from the index, so the file is inert
// either way.
func (s *Store) quarantine(name string) {
	if err := s.fs.Rename(join(s.objDir, name), join(s.quarDir, name)); err != nil {
		s.errors.Add(1)
		if err := s.fs.Remove(join(s.objDir, name)); err != nil {
			s.errors.Add(1)
		}
	}
}

// Flush blocks until every write accepted before the call has been
// attempted (published or counted as failed), or ctx ends. The
// graceful-drain path uses it so a clean shutdown never loses a
// completed artifact.
func (s *Store) Flush(ctx context.Context) error {
	ch := make(chan struct{})
	for {
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return nil
		}
		sent := false
		select {
		case s.queue <- writeReq{flush: ch}:
			sent = true
		default:
		}
		s.mu.Unlock()
		if sent {
			break
		}
		// Queue full: the writer is behind. Yield briefly and retry the
		// barrier send; blocking on the channel while holding mu would
		// deadlock against the writer's own index updates.
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
	select {
	case <-ch:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close drains the already-accepted write queue and stops the writer.
// Further Puts are silently dropped; Get keeps working (reads need no
// writer).
func (s *Store) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	close(s.queue)
	<-s.writerDone
}

// Degraded reports whether the store has seen any filesystem failure
// since Open. Requests keep succeeding regardless (every store failure
// degrades to recompute); the flag surfaces on /healthz so operators
// notice the disk before it matters.
func (s *Store) Degraded() bool { return s.errors.Load() > 0 }

// Stats snapshots the counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	entries, bytes := len(s.index), s.totalBytes
	s.mu.Unlock()
	return Stats{
		Entries:       entries,
		Bytes:         bytes,
		Hits:          s.hits.Load(),
		WarmHits:      s.warmHits.Load(),
		Misses:        s.misses.Load(),
		Writes:        s.writes.Load(),
		Errors:        s.errors.Load(),
		Corrupt:       s.corrupt.Load(),
		Shed:          s.shed.Load(),
		Evictions:     s.evictions.Load(),
		Imported:      s.imported.Load(),
		ImportSkipped: s.importSkipped.Load(),
	}
}
