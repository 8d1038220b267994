package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	shelley "github.com/shelley-go/shelley"
	"github.com/shelley-go/shelley/client"
	"github.com/shelley-go/shelley/internal/store"
)

// postJSON marshals v and posts it, returning the raw response.
func postJSON(t *testing.T, addr, path string, v any) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return rawPost(t, "http://"+addr, path, string(body))
}

// libraryCheckBody is the ground truth of a check: the uncached
// library's reports, wrapped exactly as /v1/check wraps them.
func libraryCheckBody(t *testing.T, source, class string, precise bool) []byte {
	t.Helper()
	mod, err := shelley.LoadSource(source)
	if err != nil {
		t.Fatal(err)
	}
	mod.SetPipelineCaching(false)
	var opts []shelley.Option
	if precise {
		opts = append(opts, shelley.Precise())
	}
	var reports []*shelley.Report
	if class == "" {
		reports, err = mod.CheckAllContext(context.Background(), 1, opts...)
	} else {
		cls, _ := mod.Class(class)
		var rep *shelley.Report
		rep, err = cls.Check(opts...)
		reports = []*shelley.Report{rep}
	}
	if err != nil {
		t.Fatal(err)
	}
	ok := true
	for _, r := range reports {
		ok = ok && r.OK()
	}
	body, err := json.Marshal(client.CheckResponse{Fingerprint: client.Fingerprint(source), OK: ok, Reports: reports})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// cellCount returns how many response cells fp's resident module holds.
func cellCount(t *testing.T, srv *Server, fp string) int {
	t.Helper()
	e := srv.modules.settled(fp)
	if e == nil {
		t.Fatalf("module %s not resident", fp)
	}
	e.cellMu.Lock()
	defer e.cellMu.Unlock()
	return len(e.cells)
}

// TestResponseCell pins the per-module response cell: singleflight
// leader/waiter mechanics, which results stay, and that cells live and
// die with their module.
func TestResponseCell(t *testing.T) {
	t.Run("leader and waiters", func(t *testing.T) {
		e := &moduleEntry{}
		c1, leader1 := e.cell("k")
		if !leader1 {
			t.Fatal("first request for a key must lead")
		}
		c2, leader2 := e.cell("k")
		if leader2 || c1 != c2 {
			t.Fatal("second request must wait on the same cell")
		}
		e.settle("k", c1, http.StatusServiceUnavailable, []byte("x"), false)
		<-c2.done
		if c2.status != http.StatusServiceUnavailable || string(c2.body) != "x" {
			t.Fatalf("waiter saw %d %q", c2.status, c2.body)
		}
		c3, leader3 := e.cell("k")
		if !leader3 {
			t.Fatal("a result that is not kept must be forgotten: the next request leads")
		}
		e.settle("k", c3, http.StatusOK, []byte("y"), true)
		if !e.kept("k") {
			t.Fatal("a kept result must answer later requests")
		}
		c4, leader4 := e.cell("k")
		if leader4 || c4 != c3 || !isClosed(c4.done) || string(c4.body) != "y" {
			t.Fatal("a kept cell must be returned settled, without a new leader")
		}
	})

	t.Run("non-200 and panics are forgotten", func(t *testing.T) {
		var jobs atomic.Int64
		srv, _ := startServer(t, Config{
			Workers: 1, RequestTimeout: 100 * time.Millisecond,
			runHook: func() {
				switch jobs.Add(1) {
				case 1:
					panic("injected verification panic")
				case 2:
					// Outlive the request timeout: the sweep starts
					// cancelled and answers 504.
					time.Sleep(250 * time.Millisecond)
				}
			},
		})
		src := syntheticSource(2, "Forget")
		req := client.CheckRequest{Source: src}
		if code, body := postJSON(t, srv.Addr(), "/v1/check", req); code != http.StatusInternalServerError {
			t.Fatalf("panicking check = %d %s, want 500", code, body)
		}
		code, body := postJSON(t, srv.Addr(), "/v1/check", req)
		if code != http.StatusGatewayTimeout || !strings.Contains(string(body), "check cancelled") {
			t.Fatalf("timed-out check = %d %s, want 504 from a cancelled sweep", code, body)
		}
		code, body = postJSON(t, srv.Addr(), "/v1/check", req)
		if code != http.StatusOK || !bytes.Equal(body, libraryCheckBody(t, src, "", false)) {
			t.Fatalf("retry = %d %s, want the library's 200", code, body)
		}
		if n := jobs.Load(); n != 3 {
			t.Errorf("pooled jobs = %d, want 3: each failure must be recomputed", n)
		}
	})

	t.Run("a 200 check body is kept", func(t *testing.T) {
		var jobs atomic.Int64
		srv, _ := startServer(t, Config{runHook: func() { jobs.Add(1) }})
		src := syntheticSource(2, "Keep")
		fp := client.Fingerprint(src)
		_, first := postJSON(t, srv.Addr(), "/v1/check", client.CheckRequest{Source: src})
		for _, req := range []client.CheckRequest{{Source: src}, {Fingerprint: fp}} {
			code, body := postJSON(t, srv.Addr(), "/v1/check", req)
			if code != http.StatusOK || !bytes.Equal(body, first) {
				t.Fatalf("repeat = %d %s, want the first body", code, body)
			}
		}
		if n := jobs.Load(); n != 1 {
			t.Errorf("pooled jobs = %d, want 1: repeats must not reach the pool", n)
		}
		if n := srv.met.bodyCacheHits.Load(); n != 2 {
			t.Errorf("shelleyd_check_body_cache_hits_total = %d, want 2", n)
		}
	})

	t.Run("infer and trace results are never kept", func(t *testing.T) {
		var jobs atomic.Int64
		srv, _ := startServer(t, Config{runHook: func() { jobs.Add(1) }})
		src := readTestdata(t, "valve.py")
		fp := client.Fingerprint(src)
		for i := 0; i < 2; i++ {
			if code, body := postJSON(t, srv.Addr(), "/v1/infer", client.InferRequest{Source: src, Class: "Valve"}); code != http.StatusOK {
				t.Fatalf("infer = %d %s", code, body)
			}
			if code, body := postJSON(t, srv.Addr(), "/v1/trace", client.TraceRequest{Fingerprint: fp, Class: "Valve", Trace: []string{"test", "open"}}); code != http.StatusOK {
				t.Fatalf("trace = %d %s", code, body)
			}
		}
		if n := jobs.Load(); n != 4 {
			t.Errorf("pooled jobs = %d, want 4: infer/trace must recompute", n)
		}
		if n := cellCount(t, srv, fp); n != 0 {
			t.Errorf("module holds %d cells after infer/trace, want 0", n)
		}
		if n := srv.met.bodyCacheHits.Load(); n != 0 {
			t.Errorf("body cache hits = %d, want 0", n)
		}
	})

	t.Run("eviction drops the module's cells", func(t *testing.T) {
		for _, withStore := range []bool{false, true} {
			cfg := Config{MaxModules: 1}
			var st *store.Store
			if withStore {
				var err error
				st, err = store.Open(store.Config{Dir: t.TempDir()})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { st.Close() }) // runs after the server's drain
				cfg.Store = st
			}
			srv, _ := startServer(t, cfg)
			srcA, srcB := syntheticSource(1, "EvA"), syntheticSource(1, "EvB")
			fpA := client.Fingerprint(srcA)
			_, bodyA := postJSON(t, srv.Addr(), "/v1/check", client.CheckRequest{Source: srcA})
			if n := cellCount(t, srv, fpA); n != 1 {
				t.Fatalf("store=%v: cells = %d after a 200, want 1", withStore, n)
			}
			postJSON(t, srv.Addr(), "/v1/check", client.CheckRequest{Source: srcB})
			if srv.modules.settled(fpA) != nil {
				t.Fatalf("store=%v: module A still resident past MaxModules=1", withStore)
			}
			if withStore {
				if err := st.Flush(context.Background()); err != nil {
					t.Fatal(err)
				}
			}
			code, body := postJSON(t, srv.Addr(), "/v1/check", client.CheckRequest{Fingerprint: fpA})
			switch {
			case withStore && (code != http.StatusOK || !bytes.Equal(body, bodyA)):
				t.Errorf("store: fingerprint-only check after eviction = %d %s, want the stored body", code, body)
			case withStore && srv.met.storeBodyHits.Load() != 1:
				t.Errorf("store body hits = %d, want 1", srv.met.storeBodyHits.Load())
			case !withStore && code != http.StatusNotFound:
				t.Errorf("no store: fingerprint-only check after eviction = %d %s, want 404", code, body)
			}
			if srv.met.bodyCacheHits.Load() != 0 {
				t.Errorf("store=%v: an evicted module's cell answered", withStore)
			}
		}
	})
}

// preciseSource mixes the paper's BadSector (flagged in both modes)
// with a composite that only the union analysis flags, so precise and
// union responses differ.
func preciseSource(t *testing.T) string {
	return readTestdata(t, "valve.py") + "\n" + readTestdata(t, "badsector.py") + `

@sys
class Dev:
    @op_initial
    def arm(self):
        return ["fire", "disarm"]

    @op
    def fire(self):
        return ["disarm"]

    @op_final
    def disarm(self):
        return ["arm"]


@sys(["d"])
class Ctl:
    def __init__(self):
        self.d = Dev()

    @op_initial
    def probe(self):
        if self.hot():
            self.d.arm()
            return ["engage"]
        else:
            return ["reset"]

    @op_final
    def engage(self):
        self.d.fire()
        self.d.disarm()
        return []

    @op_final
    def reset(self):
        return []
`
}

// TestPreciseChecksMatchLibrary: every precise serving path — whole
// module, one class, a batch item, a multi-worker sweep — answers the
// uncached library's precise bytes.
func TestPreciseChecksMatchLibrary(t *testing.T) {
	src := preciseSource(t)
	if bytes.Equal(libraryCheckBody(t, src, "", true), libraryCheckBody(t, src, "", false)) {
		t.Fatal("precise and union agree on the fixture; the test would not tell them apart")
	}
	for _, tc := range []struct {
		name  string
		cfg   Config
		class string
		batch bool
	}{
		{name: "module"},
		{name: "class", class: "Ctl"},
		{name: "batch item", batch: true},
		{name: "module, 2 check workers", cfg: Config{CheckWorkers: 2, TraceRingSize: 4096}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, _ := startServer(t, tc.cfg)
			want := libraryCheckBody(t, src, tc.class, true)
			req := client.CheckRequest{Source: src, Class: tc.class, Precise: true}
			var got []byte
			if tc.batch {
				code, raw := postJSON(t, srv.Addr(), "/v1/check-batch", client.BatchRequest{Items: []client.BatchItem{
					{Source: src, Class: tc.class, Precise: true},
				}})
				if code != http.StatusOK {
					t.Fatalf("batch = %d %s", code, raw)
				}
				sc := bufio.NewScanner(bytes.NewReader(raw))
				sc.Buffer(nil, 1<<20)
				sc.Scan()
				var rec client.BatchRecord
				if err := json.Unmarshal(sc.Bytes(), &rec); err != nil || rec.Status != http.StatusOK {
					t.Fatalf("first record %s (err %v)", sc.Bytes(), err)
				}
				got = rec.Check
			} else {
				code, raw := postJSON(t, srv.Addr(), "/v1/check", req)
				if code != http.StatusOK {
					t.Fatalf("check = %d %s", code, raw)
				}
				got = raw
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("served precise body differs from the uncached library:\nserved:  %s\nlibrary: %s", got, want)
			}
			if tc.cfg.CheckWorkers > 1 {
				var workers string
				for _, s := range srv.TraceSnapshot() {
					if s.Name != "check.module" {
						continue
					}
					for _, a := range s.Attrs {
						if a.Key == "workers" {
							workers = a.Value
						}
					}
				}
				if workers != "2" {
					t.Errorf("precise sweep ran with workers=%q, want CheckWorkers=2", workers)
				}
			}
		})
	}

	t.Run("cancelled sweep answers 504", func(t *testing.T) {
		srv, _ := startServer(t, Config{
			RequestTimeout: 100 * time.Millisecond,
			runHook:        func() { time.Sleep(250 * time.Millisecond) },
		})
		for _, precise := range []bool{true, false} {
			code, body := postJSON(t, srv.Addr(), "/v1/check", client.CheckRequest{Source: src, Precise: precise})
			if code != http.StatusGatewayTimeout || !strings.Contains(string(body), "check cancelled") {
				t.Errorf("precise=%v: cancelled sweep = %d %s, want 504", precise, code, body)
			}
		}
	})
}
