package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/shelley-go/shelley/client"
	"github.com/shelley-go/shelley/internal/store"
)

// rawPost hits a daemon endpoint without the client's decoding layer,
// so tests can compare response bodies byte for byte.
func rawPost(t *testing.T, base, path, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// bootStoreServer opens (or reopens) the artifact store at dir (over
// fs; nil means the real disk) and boots a daemon over it. Teardown is
// the caller's: the returned shutdown runs a clean drain (flushing the
// store) and closes it.
func bootStoreServer(t *testing.T, dir string, fs store.FS) (st *store.Store, base string, shutdown func()) {
	t.Helper()
	st, err := store.Open(store.Config{Dir: dir, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Store: st})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		st.Close()
		t.Fatal(err)
	}
	cl := client.New("http://" + addr)
	if err := cl.WaitReady(context.Background(), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	var once bool
	return st, "http://" + addr, func() {
		if once {
			return
		}
		once = true
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		st.Close()
	}
}

func TestWarmRestartServesByteIdenticalReports(t *testing.T) {
	dir := t.TempDir()
	source := readTestdata(t, "valve.py")
	fp := client.Fingerprint(source)
	checkBody := fmt.Sprintf(`{"source":%q}`, source)
	fpBody := fmt.Sprintf(`{"fingerprint":%q}`, fp)

	// First life: verify cold, let the drain flush the write-behind
	// queue to disk.
	_, base1, shutdown1 := bootStoreServer(t, dir, nil)
	code, body1 := rawPost(t, base1, "/v1/check", checkBody)
	if code != http.StatusOK {
		t.Fatalf("cold check: %d %s", code, body1)
	}
	shutdown1()

	// The crash left garbage behind: a torn half-frame in the object
	// directory, exactly what a kill -9 mid-write produces.
	torn := filepath.Join(dir, "objects", "feedfacedeadbeef.art")
	if err := os.WriteFile(torn, []byte("SHST\x01\x00garbage-half-frame"), 0o644); err != nil {
		t.Fatal(err)
	}

	// Second life: a fresh process over the same directory. The module
	// is NOT resident — only the fingerprint is sent — so a 200 here
	// can only come from the durable store.
	st2, base2, shutdown2 := bootStoreServer(t, dir, nil)
	defer shutdown2()
	if got := st2.Stats(); got.Entries == 0 || got.Corrupt == 0 {
		t.Fatalf("reopen stats %+v, want warm entries and the torn frame quarantined", got)
	}
	code, body2 := rawPost(t, base2, "/v1/check", fpBody)
	if code != http.StatusOK {
		t.Fatalf("warm fingerprint-only check: %d %s", code, body2)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatalf("warm restart body differs from cold body:\ncold: %s\nwarm: %s", body1, body2)
	}
	if st2.Stats().WarmHits == 0 {
		t.Fatal("warm check served without touching a warm store entry")
	}

	// The torn frame must be out of the object directory, not answering
	// reads.
	if _, err := os.Stat(torn); !os.IsNotExist(err) {
		t.Fatalf("torn frame still in objects/: %v", err)
	}
	quarantined, err := os.ReadDir(filepath.Join(dir, "quarantine"))
	if err != nil || len(quarantined) == 0 {
		t.Fatalf("quarantine dir: %v entries, err %v", len(quarantined), err)
	}

	// And the metrics surface must say so.
	resp, err := http.Get(base2 + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if v, ok := client.ParseMetric(string(metrics), "shelleyd_store_warm_hits_total"); !ok || v == 0 {
		t.Fatalf("shelleyd_store_warm_hits_total = %v (present %v), want > 0", v, ok)
	}
	if v, ok := client.ParseMetric(string(metrics), "shelleyd_store_corrupt_total"); !ok || v == 0 {
		t.Fatalf("shelleyd_store_corrupt_total = %v (present %v), want > 0", v, ok)
	}
}

func TestStoreFaultInjectionAcceptance(t *testing.T) {
	dir := t.TempDir()
	ff := store.NewFaultFS(store.OSFS{}, 1)
	st, base, shutdown := bootStoreServer(t, dir, ff)
	defer shutdown()

	// Every filesystem operation fails from here on.
	ff.SetFaults(store.Faults{FailProb: 1})

	cl := client.New(base)
	ctx := context.Background()
	for i := 0; i < 4; i++ {
		source := syntheticSource(2, fmt.Sprintf("Flt%d", i))
		resp, err := cl.Check(ctx, client.CheckRequest{Source: source})
		if err != nil {
			t.Fatalf("check %d under total store failure: %v", i, err)
		}
		if len(resp.Reports) == 0 {
			t.Fatalf("check %d returned no reports", i)
		}
	}

	// Drain the write-behind queue so every scheduled write has hit the
	// (failing) disk, then the books must balance exactly: one counted
	// store error per injected fault, no more, no less.
	if err := st.Flush(ctx); err != nil {
		t.Fatalf("flush: %v", err)
	}
	injected := ff.Injected()
	if injected == 0 {
		t.Fatal("fault FS injected nothing; the test exercised no store I/O")
	}
	if got := st.Stats().Errors; got != injected {
		t.Fatalf("store counted %d errors, FaultFS injected %d — accounting must match exactly", got, injected)
	}
	metrics, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	v, ok := client.ParseMetric(metrics, "shelleyd_store_errors_total")
	if !ok || uint64(v) != ff.Injected() {
		t.Fatalf("shelleyd_store_errors_total = %v (present %v), want %d", v, ok, ff.Injected())
	}

	// Degradation is visible but not fatal: healthz stays 200.
	status, body := func() (int, string) {
		resp, err := http.Get(base + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(raw)
	}()
	if status != http.StatusOK || !strings.Contains(body, "store degraded") {
		t.Fatalf("healthz = %d %q, want 200 with a degraded note", status, body)
	}

	// Heal the disk: the same store serves durable hits again without a
	// restart.
	ff.SetFaults(store.Faults{})
	if _, err := cl.Check(ctx, client.CheckRequest{Source: syntheticSource(1, "Heal")}); err != nil {
		t.Fatalf("check after heal: %v", err)
	}
	if err := st.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if st.Stats().Entries == 0 {
		t.Fatal("no entries published after the disk healed")
	}
}

func TestShutdownDrainFlushesStoreQueue(t *testing.T) {
	dir := t.TempDir()
	_, base, shutdown := bootStoreServer(t, dir, nil)
	code, body := rawPost(t, base, "/v1/check", fmt.Sprintf(`{"source":%q}`, readTestdata(t, "valve.py")))
	if code != http.StatusOK {
		t.Fatalf("check: %d %s", code, body)
	}
	// SIGTERM path: Shutdown must flush whatever the write-behind queue
	// accepted before the process exits.
	shutdown()

	st, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Stats().Entries == 0 {
		t.Fatal("store empty after drain; the shutdown flush lost the queue")
	}
}

func TestSnapshotHTTPRoundTrip(t *testing.T) {
	ctx := context.Background()
	source := readTestdata(t, "valve.py")
	fp := client.Fingerprint(source)

	// Daemon A verifies and holds the artifacts.
	dirA := t.TempDir()
	_, baseA, shutdownA := bootStoreServer(t, dirA, nil)
	defer shutdownA()
	clA := client.New(baseA)
	if _, err := clA.Check(ctx, client.CheckRequest{Source: source}); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	n, err := clA.SnapshotDownload(ctx, &snap)
	if err != nil || n == 0 {
		t.Fatalf("snapshot download: %d bytes, %v", n, err)
	}

	// Daemon B never saw the source; the snapshot alone must let it
	// answer a fingerprint-only check.
	dirB := t.TempDir()
	_, baseB, shutdownB := bootStoreServer(t, dirB, nil)
	defer shutdownB()
	clB := client.New(baseB)
	imp, err := clB.SnapshotUpload(ctx, bytes.NewReader(snap.Bytes()))
	if err != nil {
		t.Fatalf("snapshot upload: %v", err)
	}
	if imp.Imported == 0 {
		t.Fatalf("import response %+v, want imported entries", imp)
	}
	resp, err := clB.Check(ctx, client.CheckRequest{Fingerprint: fp})
	if err != nil {
		t.Fatalf("fingerprint-only check on snapshot-warmed daemon: %v", err)
	}
	if !resp.OK || len(resp.Reports) == 0 {
		t.Fatalf("unexpected warmed response: %+v", resp)
	}

	// Re-uploading the same snapshot is a clean no-op: everything is a
	// duplicate, nothing imports twice.
	imp2, err := clB.SnapshotUpload(ctx, bytes.NewReader(snap.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if imp2.Imported != 0 || imp2.Skipped == 0 {
		t.Fatalf("duplicate upload imported=%d skipped=%d, want 0 imported", imp2.Imported, imp2.Skipped)
	}

	// A snapshot with a damaged record still imports the good ones; a
	// structurally broken stream is refused outright.
	if _, err := clB.SnapshotUpload(ctx, strings.NewReader("not a snapshot")); err == nil {
		t.Fatal("structurally broken snapshot accepted")
	}
}
