package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"github.com/shelley-go/shelley/client"
)

// benchServer boots a daemon sized like the default production config.
func benchServer(b *testing.B) *client.Client {
	return benchServerCfg(b, Config{RequestTimeout: 60 * time.Second})
}

func benchServerCfg(b *testing.B, cfg Config) *client.Client {
	b.Helper()
	srv := New(cfg)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	cl := client.New("http://" + addr)
	if err := cl.WaitReady(context.Background(), 5*time.Second); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return cl
}

// BenchmarkServerCheckCold measures the full request path on a source
// the daemon has never seen: HTTP + JSON + module load + cold pipeline
// run. Every iteration uses a distinct source so nothing is resident.
func BenchmarkServerCheckCold(b *testing.B) {
	cl := benchServer(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := syntheticSource(4, fmt.Sprintf("cold%d", i))
		if _, err := cl.Check(ctx, client.CheckRequest{Source: src}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServerCheckWarm measures the steady state: the same source
// re-checked against a resident module — a fingerprint lookup plus
// cached reports, so the wire and scheduling overhead dominates.
func BenchmarkServerCheckWarm(b *testing.B) {
	cl := benchServer(b)
	ctx := context.Background()
	src := syntheticSource(4, "warm")
	if _, err := cl.Check(ctx, client.CheckRequest{Source: src}); err != nil {
		b.Fatal(err)
	}
	fp := client.Fingerprint(src)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.Check(ctx, client.CheckRequest{Fingerprint: fp}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServerCheckWarmTraced is the warm path with tracing on —
// the shelleyd -trace configuration. Each request opens one http.check
// root span into the ring buffer; the per-class report hits annotate
// it as one aggregated counter. EXPERIMENTS.md P3 records the ratio
// against BenchmarkServerCheckWarm and attributes the delta (one root
// span plus GC amplification of its allocations in this closed loop;
// the Inproc pair below isolates the handler-side cost).
func BenchmarkServerCheckWarmTraced(b *testing.B) {
	cl := benchServerCfg(b, Config{RequestTimeout: 60 * time.Second, TraceRingSize: 4096})
	ctx := context.Background()
	src := syntheticSource(4, "warm")
	if _, err := cl.Check(ctx, client.CheckRequest{Source: src}); err != nil {
		b.Fatal(err)
	}
	fp := client.Fingerprint(src)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.Check(ctx, client.CheckRequest{Fingerprint: fp}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchCheckWarmInproc drives the mux directly with a ResponseRecorder
// — no sockets — so the handler-layer cost is isolated from loopback
// scheduling noise. The Inproc pair below is the denominator used to
// attribute the traced-vs-plain delta in EXPERIMENTS.md P3.
func benchCheckWarmInproc(b *testing.B, cfg Config) {
	b.Helper()
	src := syntheticSource(4, "warm")
	primeBody, _ := json.Marshal(client.CheckRequest{Source: src})
	reqBody, _ := json.Marshal(client.CheckRequest{Fingerprint: client.Fingerprint(src)})
	srv := New(cfg)
	if _, err := srv.Start("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	w := httptest.NewRecorder()
	srv.mux.ServeHTTP(w, httptest.NewRequest("POST", "/v1/check", bytes.NewReader(primeBody)))
	if w.Code != 200 {
		b.Fatalf("prime: %d %s", w.Code, w.Body.String())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := httptest.NewRecorder()
		srv.mux.ServeHTTP(w, httptest.NewRequest("POST", "/v1/check", bytes.NewReader(reqBody)))
		if w.Code != 200 {
			b.Fatalf("status %d: %s", w.Code, w.Body.String())
		}
	}
}

func BenchmarkServerCheckWarmInproc(b *testing.B) {
	benchCheckWarmInproc(b, Config{RequestTimeout: 60 * time.Second})
}

func BenchmarkServerCheckWarmInprocTraced(b *testing.B) {
	benchCheckWarmInproc(b, Config{RequestTimeout: 60 * time.Second, TraceRingSize: 4096})
}

// BenchmarkServerCheckWarmInprocTelemetry is the warm path under the
// default operating posture of shelleyd: telemetry on (engine ticking,
// tail sampling armed). The per-request cost over plain Inproc is the
// telemetry tax — the lock-free histogram observe plus the exemplar
// decision — which EXPERIMENTS.md P7 requires to stay within 5%.
func BenchmarkServerCheckWarmInprocTelemetry(b *testing.B) {
	benchCheckWarmInproc(b, Config{RequestTimeout: 60 * time.Second, Telemetry: true})
}

// benchWarm64 boots a daemon with 64 distinct resident modules and
// returns a client plus their fingerprints — the shared fixture of the
// batch-vs-singles pair recorded as EXPERIMENTS.md P4. Workers is
// pinned to 1 rather than left to GOMAXPROCS, so the batch side runs the
// sequential item loop on any runner; both sides of the pair share this
// one server config.
func benchWarm64(b *testing.B) (*client.Client, []string) {
	b.Helper()
	cl := benchServerCfg(b, Config{RequestTimeout: 60 * time.Second, Workers: 1})
	ctx := context.Background()
	fps := make([]string, 64)
	for i := range fps {
		src := syntheticSource(1, fmt.Sprintf("p4x%d", i))
		if _, err := cl.Check(ctx, client.CheckRequest{Source: src}); err != nil {
			b.Fatal(err)
		}
		fps[i] = client.Fingerprint(src)
	}
	return cl, fps
}

// BenchmarkServerCheckBatch64Warm is one 64-class batch per iteration:
// a single HTTP request whose 64 records stream back over one
// connection. Compare per-op time against BenchmarkServerCheck64
// SinglesWarm — the warm path is wire-dominated (P2), so folding 64
// round trips into one stream is where batch throughput comes from.
func BenchmarkServerCheckBatch64Warm(b *testing.B) {
	cl, fps := benchWarm64(b)
	ctx := context.Background()
	items := make([]client.BatchItem, len(fps))
	for i, fp := range fps {
		items[i] = client.BatchItem{Fingerprint: fp}
	}
	req := client.BatchRequest{Items: items}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stream, err := cl.CheckBatch(ctx, req)
		if err != nil {
			b.Fatal(err)
		}
		records, err := stream.Collect()
		if err != nil {
			b.Fatal(err)
		}
		if sum := stream.Summary(); len(records) != 64 || sum.Succeeded != 64 {
			b.Fatalf("records=%d summary=%+v", len(records), sum)
		}
	}
	b.ReportMetric(float64(b.N*64)/b.Elapsed().Seconds(), "items/s")
}

// BenchmarkServerCheck64SinglesWarm is the same 64 warm verifications
// as 64 sequential /v1/check requests — the round-trip-per-class
// baseline the batch endpoint replaces.
func BenchmarkServerCheck64SinglesWarm(b *testing.B) {
	cl, fps := benchWarm64(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, fp := range fps {
			if _, err := cl.Check(ctx, client.CheckRequest{Fingerprint: fp}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.N*64)/b.Elapsed().Seconds(), "items/s")
}

// BenchmarkServerCheckCoalesced measures identical requests raced from
// many goroutines, where in-flight coalescing and the resident module
// collapse the work; per-op cost is one shared execution fanned out.
func BenchmarkServerCheckCoalesced(b *testing.B) {
	cl := benchServer(b)
	src := syntheticSource(4, "coalesced")
	ctx := context.Background()
	if _, err := cl.Check(ctx, client.CheckRequest{Source: src}); err != nil {
		b.Fatal(err)
	}
	var failed atomic.Bool
	b.ReportAllocs()
	b.SetParallelism(8)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := cl.Check(ctx, client.CheckRequest{Source: src}); err != nil {
				failed.Store(true)
			}
		}
	})
	if failed.Load() {
		b.Fatal("requests failed under parallel load")
	}
}
