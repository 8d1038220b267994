package main

import (
	"context"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"github.com/shelley-go/shelley/client"
)

// syncBuffer is an io.Writer safe for the serve goroutine and the test
// to share.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

var addrRE = regexp.MustCompile(`listening on (http://[0-9.:]+)`)

// TestRunServeSIGTERMDrain drives the daemon exactly as an init system
// would: start, serve traffic, SIGTERM, and expect a clean drain with
// exit code 0.
func TestRunServeSIGTERMDrain(t *testing.T) {
	sig := make(chan os.Signal, 1)
	out := &syncBuffer{}
	done := make(chan struct{})
	var code int
	var runErr error
	go func() {
		defer close(done)
		code, runErr = run([]string{"-addr", "127.0.0.1:0", "-workers", "2"}, out, sig)
	}()

	// Wait for the bound address to appear in the log.
	var base string
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if m := addrRE.FindStringSubmatch(out.String()); m != nil {
			base = m[1]
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if base == "" {
		t.Fatalf("daemon never logged its address:\n%s", out.String())
	}

	cl := client.New(base)
	ctx := context.Background()
	if err := cl.WaitReady(ctx, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	source, err := os.ReadFile(filepath.Join("..", "..", "testdata", "valve.py"))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := cl.Check(ctx, client.CheckRequest{Source: string(source)})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK {
		t.Errorf("valve should verify clean: %+v", resp)
	}
	if _, err := cl.Metrics(ctx); err != nil {
		t.Fatal(err)
	}

	sig <- syscall.SIGTERM
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not exit after SIGTERM")
	}
	if runErr != nil || code != 0 {
		t.Fatalf("run = (%d, %v), want (0, nil)\n%s", code, runErr, out.String())
	}
	if !strings.Contains(out.String(), "drained clean") {
		t.Errorf("missing drain confirmation:\n%s", out.String())
	}
}

// TestRunServeStatusAndSLOFlags boots serve mode with a custom -slo and
// a fast telemetry clock, drives one check, and reads the objective
// back through client.Status.
func TestRunServeStatusAndSLOFlags(t *testing.T) {
	sig := make(chan os.Signal, 1)
	out := &syncBuffer{}
	done := make(chan struct{})
	var code int
	var runErr error
	go func() {
		defer close(done)
		code, runErr = run([]string{
			"-addr", "127.0.0.1:0", "-workers", "2", "-quiet",
			"-telemetry-interval", "50ms",
			"-slo", "check:5ms:99", "-slo", "check:availability:99.9",
		}, out, sig)
	}()
	var base string
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if m := addrRE.FindStringSubmatch(out.String()); m != nil {
			base = m[1]
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if base == "" {
		t.Fatalf("daemon never logged its address:\n%s", out.String())
	}
	cl := client.New(base)
	ctx := context.Background()
	if err := cl.WaitReady(ctx, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	source, err := os.ReadFile(filepath.Join("..", "..", "testdata", "valve.py"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Check(ctx, client.CheckRequest{Source: string(source)}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(150 * time.Millisecond)

	status, err := cl.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var latSLO *client.SLOStatus
	for i := range status.SLOs {
		if status.SLOs[i].Name == "check-latency" {
			latSLO = &status.SLOs[i]
		}
	}
	if latSLO == nil {
		t.Fatalf("check-latency SLO missing: %+v", status.SLOs)
	}
	if latSLO.Latency != 5*time.Millisecond || latSLO.Target != 0.99 {
		t.Errorf("-slo check:5ms:99 parsed as latency=%v target=%v", latSLO.Latency, latSLO.Target)
	}
	if len(status.Endpoints) == 0 {
		t.Error("no endpoints in status after traffic")
	}

	sig <- syscall.SIGTERM
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not exit after SIGTERM")
	}
	if code != 0 || runErr != nil {
		t.Fatalf("run = (%d, %v), want (0, nil)\n%s", code, runErr, out.String())
	}
}

// TestBadSLOFlag pins that a malformed -slo fails at flag-parse time.
func TestBadSLOFlag(t *testing.T) {
	out := &syncBuffer{}
	if code, err := run([]string{"-slo", "check:sideways:99"}, out, nil); err == nil || code != 2 {
		t.Errorf("bad -slo: (%d, %v), want code 2 and error", code, err)
	}
	if code, err := run([]string{"-slo", "check:1ms:250"}, out, nil); err == nil || code != 2 {
		t.Errorf("bad -slo target: (%d, %v), want code 2 and error", code, err)
	}
}

// TestRunUsageErrors pins the exit-code contract of the daemon binary.
func TestRunUsageErrors(t *testing.T) {
	out := &syncBuffer{}
	if code, err := run([]string{"-badflag"}, out, nil); err == nil || code != 2 {
		t.Errorf("bad flag: (%d, %v), want code 2 and error", code, err)
	}
	if code, err := run([]string{"stray"}, out, nil); err == nil || code != 2 {
		t.Errorf("stray arg: (%d, %v), want code 2 and error", code, err)
	}
}
