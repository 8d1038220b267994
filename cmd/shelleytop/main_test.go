package main

import (
	"context"
	"fmt"
	"os"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"github.com/shelley-go/shelley/client"
	"github.com/shelley-go/shelley/internal/server"
)

// startDaemon boots an in-process telemetry-enabled daemon, drives a
// little traffic through it (cold checks breach the default 1ms
// latency SLO, so the exemplar ring populates), and returns its base
// URL.
func startDaemon(t *testing.T) string {
	t.Helper()
	cfg := server.Config{
		Workers: 2, Telemetry: true, TelemetryInterval: 20 * time.Millisecond,
	}
	srv := server.New(cfg)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	base := "http://" + addr
	cl := client.New(base)
	ctx := context.Background()
	if err := cl.WaitReady(ctx, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		src := fmt.Sprintf("@sys\nclass Top%d:\n    @op_initial_final\n    def go(self):\n        return []\n", i)
		if _, err := cl.Check(ctx, client.CheckRequest{Source: src}); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(60 * time.Millisecond) // let the engine snapshot the traffic
	return base
}

// TestOnceFrame pins the -once contract: one frame on stdout, exit 0,
// with the endpoint table, SLOs, and the injected panic all visible.
func TestOnceFrame(t *testing.T) {
	base := startDaemon(t)
	var out strings.Builder
	code, err := run([]string{"-addr", base, "-once"}, &out, nil)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("exit = %d\n%s", code, out.String())
	}
	text := out.String()
	for _, want := range []string{"ENDPOINT", "check", "P99", "SLO", "check-latency", "latency"} {
		if !strings.Contains(text, want) {
			t.Errorf("frame missing %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "\x1b[2J") {
		t.Error("-once must not clear the screen")
	}
}

// TestOnceAgainstDisabledTelemetry pins the failure mode: a daemon
// without telemetry yields exit 1 and the 404 hint.
func TestOnceAgainstDisabledTelemetry(t *testing.T) {
	srv := server.New(server.Config{Workers: 1})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	if err := client.New("http://"+addr).WaitReady(context.Background(), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	code, err := run([]string{"-addr", "http://" + addr, "-once"}, &out, nil)
	if code != 1 || err == nil {
		t.Fatalf("run against telemetry-less daemon = (%d, %v), want (1, 404 error)", code, err)
	}
	if !strings.Contains(err.Error(), "telemetry disabled") {
		t.Errorf("error %q should carry the daemon's hint", err)
	}
}

// TestLiveLoopStopsOnSignal runs the polling loop for a couple frames
// and stops it with a signal, the way Ctrl-C would.
func TestLiveLoopStopsOnSignal(t *testing.T) {
	base := startDaemon(t)
	sig := make(chan os.Signal, 1)
	var out syncWriter
	done := make(chan struct{})
	var code int
	var runErr error
	go func() {
		defer close(done)
		code, runErr = run([]string{"-addr", base, "-interval", "30ms"}, &out, sig)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && !strings.Contains(out.String(), "ENDPOINT") {
		time.Sleep(10 * time.Millisecond)
	}
	if !strings.Contains(out.String(), "ENDPOINT") {
		t.Fatalf("no frame painted:\n%s", out.String())
	}
	sig <- syscall.SIGTERM
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("loop did not stop on signal")
	}
	if code != 0 || runErr != nil {
		t.Fatalf("run = (%d, %v), want (0, nil)", code, runErr)
	}
	if !strings.Contains(out.String(), "\x1b[2J") {
		t.Error("live mode should repaint with ANSI clear")
	}
}

func TestUsageErrors(t *testing.T) {
	var out strings.Builder
	if code, err := run([]string{"-badflag"}, &out, nil); err == nil || code != 2 {
		t.Errorf("bad flag: (%d, %v), want code 2 and error", code, err)
	}
	if code, err := run([]string{"stray"}, &out, nil); err == nil || code != 2 {
		t.Errorf("stray arg: (%d, %v), want code 2 and error", code, err)
	}
}

type syncWriter struct {
	mu sync.Mutex
	b  strings.Builder
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.String()
}
