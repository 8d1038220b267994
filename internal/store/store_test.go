package store

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func open(t *testing.T, cfg Config) *Store {
	t.Helper()
	s, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(s.Close)
	return s
}

func mustFlush(t *testing.T, s *Store) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Flush(ctx); err != nil {
		t.Fatalf("Flush: %v", err)
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	s := open(t, Config{Dir: t.TempDir()})
	s.Put("alpha", []byte("payload-a"))
	s.Put("beta", []byte("payload-b"))
	mustFlush(t, s)

	got, ok := s.Get("alpha")
	if !ok || string(got) != "payload-a" {
		t.Fatalf("Get alpha = %q, %v", got, ok)
	}
	if _, ok := s.Get("absent"); ok {
		t.Fatal("Get of absent key succeeded")
	}
	st := s.Stats()
	if st.Writes != 2 || st.Hits != 1 || st.Misses != 1 || st.Entries != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if st.WarmHits != 0 {
		t.Fatalf("fresh writes must not count as warm hits: %+v", st)
	}
	// Duplicate Put of a published key is a no-op, not a rewrite.
	s.Put("alpha", []byte("payload-a"))
	mustFlush(t, s)
	if st := s.Stats(); st.Writes != 2 {
		t.Fatalf("duplicate Put caused a write: %+v", st)
	}
}

func TestWarmReopenServesPreviousEntries(t *testing.T) {
	dir := t.TempDir()
	s1 := open(t, Config{Dir: dir})
	s1.Put("report/one", []byte("serialized report one"))
	s1.Put("body/two", []byte("rendered body two"))
	mustFlush(t, s1)
	s1.Close()

	s2 := open(t, Config{Dir: dir})
	for key, want := range map[string]string{
		"report/one": "serialized report one",
		"body/two":   "rendered body two",
	} {
		got, ok := s2.Get(key)
		if !ok || string(got) != want {
			t.Fatalf("after reopen, Get(%q) = %q, %v", key, got, ok)
		}
	}
	st := s2.Stats()
	if st.WarmHits != 2 || st.Hits != 2 {
		t.Fatalf("warm hits = %d (hits %d), want 2", st.WarmHits, st.Hits)
	}
}

func TestOpenSweepsCrashLeftTempFiles(t *testing.T) {
	dir := t.TempDir()
	tmp := filepath.Join(dir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		t.Fatal(err)
	}
	// A kill -9 mid-write leaves an unrenamed temp file: garbage by the
	// publish protocol, swept at the next boot.
	if err := os.WriteFile(filepath.Join(tmp, "deadbeef.art.7.tmp"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := open(t, Config{Dir: dir})
	if names, err := os.ReadDir(tmp); err != nil || len(names) != 0 {
		t.Fatalf("tmp dir after Open: %v entries, err %v", len(names), err)
	}
	if st := s.Stats(); st.Entries != 0 || st.Corrupt != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCorruptionCorpusQuarantinedAtOpen(t *testing.T) {
	// The committed corpus holds one valid entry and four flavors of
	// damage: truncation, a flipped payload bit, a flipped checksum
	// byte, and a future format version. The loader must quarantine and
	// count all four and serve the survivor.
	corpus := filepath.Join("..", "..", "testdata", "store")
	dir := t.TempDir()
	objects := filepath.Join(dir, "objects")
	if err := os.MkdirAll(objects, 0o755); err != nil {
		t.Fatal(err)
	}
	names, err := os.ReadDir(corpus)
	if err != nil {
		t.Fatalf("reading corpus: %v", err)
	}
	for _, n := range names {
		b, err := os.ReadFile(filepath.Join(corpus, n.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(objects, n.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s := open(t, Config{Dir: dir})
	st := s.Stats()
	if st.Corrupt != 4 {
		t.Fatalf("corrupt = %d, want 4 (stats %+v)", st.Corrupt, st)
	}
	if st.Entries != 1 {
		t.Fatalf("entries = %d, want 1", st.Entries)
	}
	if got, ok := s.Get("corpus/valid"); !ok || !bytes.Contains(got, []byte(`"ok":true`)) {
		t.Fatalf("valid corpus entry not served: %q, %v", got, ok)
	}
	quarantined, err := os.ReadDir(filepath.Join(dir, "quarantine"))
	if err != nil || len(quarantined) != 4 {
		t.Fatalf("quarantine dir: %d entries, err %v", len(quarantined), err)
	}
	// Reopening after quarantine is clean: the damage was moved, not
	// recounted.
	s.Close()
	s2 := open(t, Config{Dir: dir})
	if st := s2.Stats(); st.Corrupt != 0 || st.Entries != 1 {
		t.Fatalf("second open stats = %+v", st)
	}
}

func TestGetQuarantinesCorruptionFoundAtRead(t *testing.T) {
	dir := t.TempDir()
	s := open(t, Config{Dir: dir})
	s.Put("victim", []byte("soon to be damaged"))
	mustFlush(t, s)

	// Flip one payload byte on disk behind the store's back.
	name := entryName("victim")
	path := filepath.Join(dir, "objects", name)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[headerSize+len("victim")+3] ^= 0x08
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, ok := s.Get("victim"); ok {
		t.Fatal("corrupt entry was served")
	}
	st := s.Stats()
	if st.Corrupt != 1 || st.Misses != 1 || st.Entries != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if _, err := os.Stat(filepath.Join(dir, "quarantine", name)); err != nil {
		t.Fatalf("damaged entry not quarantined: %v", err)
	}
	// The key is gone from the index: the second Get is a plain miss.
	if _, ok := s.Get("victim"); ok {
		t.Fatal("quarantined entry resurrected")
	}
}

func TestEvictionIsLRU(t *testing.T) {
	entrySize := int64(len(Encode("key-a", bytes.Repeat([]byte("x"), 100))))
	s := open(t, Config{Dir: t.TempDir(), MaxBytes: 2 * entrySize})
	payload := bytes.Repeat([]byte("x"), 100)
	s.Put("key-a", payload)
	mustFlush(t, s)
	s.Put("key-b", payload)
	mustFlush(t, s)
	if _, ok := s.Get("key-a"); !ok { // touch a so b is the LRU entry
		t.Fatal("key-a missing before eviction")
	}
	s.Put("key-c", payload)
	mustFlush(t, s)

	if _, ok := s.Get("key-b"); ok {
		t.Fatal("LRU entry key-b survived eviction")
	}
	if _, ok := s.Get("key-a"); !ok {
		t.Fatal("recently used key-a was evicted")
	}
	if _, ok := s.Get("key-c"); !ok {
		t.Fatal("fresh key-c was evicted")
	}
	st := s.Stats()
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1 (stats %+v)", st.Evictions, st)
	}
	if st.Bytes > 2*entrySize {
		t.Fatalf("bytes = %d exceeds bound %d", st.Bytes, 2*entrySize)
	}
}

func TestFullQueueShedsInsteadOfBlocking(t *testing.T) {
	ff := NewFaultFS(nil, 1)
	s := open(t, Config{Dir: t.TempDir(), QueueDepth: 1, FS: ff})
	ff.SetFaults(Faults{Latency: 20 * time.Millisecond})
	for i := 0; i < 32; i++ {
		s.Put(string(rune('a'+i)), []byte("payload"))
	}
	mustFlush(t, s)
	st := s.Stats()
	if st.Shed == 0 {
		t.Fatalf("no sheds despite a slow single-slot queue: %+v", st)
	}
	if st.Writes+st.Shed != 32 {
		t.Fatalf("writes %d + shed %d != 32 puts", st.Writes, st.Shed)
	}
}

func TestInjectedFaultsAreCountedAndDegrade(t *testing.T) {
	ff := NewFaultFS(nil, 42)
	dir := t.TempDir()
	s := open(t, Config{Dir: dir, FS: ff})
	s.Put("pre-existing", []byte("stored while healthy"))
	mustFlush(t, s)

	ff.SetFaults(Faults{FailProb: 1})
	// Reads fail: degrade to miss, count the failed op, keep the entry.
	if _, ok := s.Get("pre-existing"); ok {
		t.Fatal("Get succeeded through a failing filesystem")
	}
	// Writes fail: the artifact is just not persisted.
	s.Put("new-key", []byte("never lands"))
	mustFlush(t, s)
	if !s.Degraded() {
		t.Fatal("store not degraded after injected faults")
	}
	st := s.Stats()
	if st.Errors != ff.Injected() {
		t.Fatalf("errors = %d, injected = %d: every injected fault must be accounted", st.Errors, ff.Injected())
	}
	if st.Errors == 0 {
		t.Fatal("no errors recorded")
	}

	// Heal the disk: the kept entry serves again.
	ff.SetFaults(Faults{})
	if got, ok := s.Get("pre-existing"); !ok || string(got) != "stored while healthy" {
		t.Fatalf("entry lost after transient faults: %q, %v", got, ok)
	}
}

func TestTornWriteIsQuarantinedAtRead(t *testing.T) {
	ff := NewFaultFS(nil, 7)
	dir := t.TempDir()
	s := open(t, Config{Dir: dir, FS: ff})
	ff.SetFaults(Faults{TornWriteProb: 1})
	s.Put("torn", []byte("this payload will be half-written by lying hardware"))
	mustFlush(t, s)
	if ff.Torn() != 1 {
		t.Fatalf("torn = %d, want 1", ff.Torn())
	}
	if _, ok := s.Get("torn"); ok {
		t.Fatal("torn entry was served")
	}
	if st := s.Stats(); st.Corrupt != 1 {
		t.Fatalf("torn entry not counted corrupt: %+v", st)
	}
}

func TestENOSPCDegrades(t *testing.T) {
	ff := NewFaultFS(nil, 9)
	s := open(t, Config{Dir: t.TempDir(), FS: ff})
	ff.SetFaults(Faults{WriteBudget: 64})
	s.Put("too-big", bytes.Repeat([]byte("x"), 4096))
	mustFlush(t, s)
	st := s.Stats()
	if st.Writes != 0 || st.Errors == 0 {
		t.Fatalf("ENOSPC write published anyway: %+v", st)
	}
	if st.Errors != ff.Injected() {
		t.Fatalf("errors = %d, injected = %d", st.Errors, ff.Injected())
	}
}

func TestSnapshotExportImport(t *testing.T) {
	src := open(t, Config{Dir: t.TempDir()})
	want := map[string]string{
		"report/a": "serialized report a",
		"report/b": "serialized report b",
		"body/c":   "rendered body c",
	}
	for k, v := range want {
		src.Put(k, []byte(v))
	}
	mustFlush(t, src)

	var buf bytes.Buffer
	if err := src.WriteSnapshot(&buf); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}

	dst := open(t, Config{Dir: t.TempDir()})
	dst.Put("body/c", []byte("rendered body c")) // pre-existing duplicate
	mustFlush(t, dst)
	imported, skipped, err := dst.ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	if imported != 2 || skipped != 1 {
		t.Fatalf("imported %d skipped %d, want 2/1", imported, skipped)
	}
	for k, v := range want {
		got, ok := dst.Get(k)
		if !ok || string(got) != v {
			t.Fatalf("after import, Get(%q) = %q, %v", k, got, ok)
		}
	}
	// Imported entries count as warm: they predate this process's work.
	if st := dst.Stats(); st.WarmHits != 2 {
		t.Fatalf("warm hits = %d, want 2 (%+v)", st.WarmHits, st)
	}
}

func TestSnapshotImportSkipsDamagedRecordsAndAbortsOnBrokenStream(t *testing.T) {
	src := open(t, Config{Dir: t.TempDir()})
	src.Put("good", []byte("good payload"))
	src.Put("doomed", []byte("to be damaged in transit"))
	mustFlush(t, src)
	var buf bytes.Buffer
	if err := src.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}

	// Flip a byte inside the second record's payload region (records are
	// sorted by key: "doomed" then "good"): entry checksums catch it and
	// the import skips just that record.
	damaged := append([]byte{}, buf.Bytes()...)
	damaged[len(damaged)-trailerSize-4] ^= 0x10
	dst := open(t, Config{Dir: t.TempDir()})
	imported, skipped, err := dst.ReadSnapshot(bytes.NewReader(damaged))
	if err != nil {
		t.Fatalf("ReadSnapshot with one damaged record: %v", err)
	}
	if imported != 1 || skipped != 1 {
		t.Fatalf("imported %d skipped %d, want 1/1", imported, skipped)
	}

	// A truncated stream (framing no longer trustworthy) aborts.
	dst2 := open(t, Config{Dir: t.TempDir()})
	if _, _, err := dst2.ReadSnapshot(bytes.NewReader(buf.Bytes()[:buf.Len()-5])); !errors.Is(err, ErrSnapshot) {
		t.Fatalf("truncated stream err = %v, want ErrSnapshot", err)
	}
	// A garbage header aborts before anything happens.
	if _, _, err := dst2.ReadSnapshot(bytes.NewReader([]byte("not a snapshot"))); !errors.Is(err, ErrSnapshot) {
		t.Fatalf("garbage header err = %v, want ErrSnapshot", err)
	}
}

func TestFlushHonorsContext(t *testing.T) {
	ff := NewFaultFS(nil, 3)
	s := open(t, Config{Dir: t.TempDir(), QueueDepth: 1, FS: ff})
	ff.SetFaults(Faults{Latency: 50 * time.Millisecond})
	for i := 0; i < 8; i++ {
		s.Put(string(rune('a'+i)), []byte("slow"))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if err := s.Flush(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Flush under a too-small budget = %v, want DeadlineExceeded", err)
	}
}

func TestCloseDrainsAcceptedWrites(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		s.Put(string(rune('a'+i)), []byte("accepted before close"))
	}
	s.Close()
	accepted := s.Stats().Writes + s.Stats().Shed
	if accepted != 16 {
		t.Fatalf("writes+shed = %d, want 16", accepted)
	}
	// Post-close Put is a silent no-op, and Get still works.
	s.Put("late", []byte("dropped"))
	if _, ok := s.Get("a"); !ok {
		t.Fatal("Get broken after Close")
	}

	s2 := open(t, Config{Dir: dir})
	if got := s2.Stats().Entries; uint64(got) != s.Stats().Writes {
		t.Fatalf("reopened entries = %d, writes before close = %d", got, s.Stats().Writes)
	}
}
