package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"strings"
	"testing"
)

func TestLoggerAttachesTraceAndSpanIDs(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(NewLogHandler(slog.NewTextHandler(&buf, nil)))

	tr := New(WithDeterministicIDs())
	ctx := ContextWithTracer(context.Background(), tr)
	ctx, sp := Start(ctx, "request")
	logger.InfoContext(ctx, "access", "method", "POST", "status", 200)
	sp.End()

	line := buf.String()
	for _, want := range []string{
		"msg=access",
		"method=POST",
		"status=200",
		"trace_id=" + sp.TraceID(),
		"span_id=" + sp.SpanID(),
	} {
		if !strings.Contains(line, want) {
			t.Errorf("log line missing %q:\n%s", want, line)
		}
	}
}

func TestLoggerWithoutSpanOmitsIDs(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(NewLogHandler(slog.NewTextHandler(&buf, nil)))
	logger.InfoContext(context.Background(), "access", "method", "GET")
	if strings.Contains(buf.String(), "trace_id") {
		t.Fatalf("untraced record should carry no trace_id:\n%s", buf.String())
	}
}

func TestLoggerSurvivesWithAttrsAndGroups(t *testing.T) {
	var buf bytes.Buffer
	base := slog.New(NewLogHandler(slog.NewJSONHandler(&buf, nil))).With("daemon", "shelleyd").WithGroup("req")

	tr := New(WithDeterministicIDs())
	ctx := ContextWithTracer(context.Background(), tr)
	ctx, sp := Start(ctx, "request")
	base.InfoContext(ctx, "access", "path", "/v1/check")
	sp.End()

	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("access line is not one JSON object: %v\n%s", err, buf.String())
	}
	if rec["daemon"] != "shelleyd" {
		t.Errorf("With attr lost: %v", rec)
	}
	req, ok := rec["req"].(map[string]any)
	if !ok {
		t.Fatalf("group missing: %v", rec)
	}
	if req["path"] != "/v1/check" {
		t.Errorf("grouped attr lost: %v", rec)
	}
	// The injected IDs land inside the open group — what matters is
	// they are present and correct.
	if req["trace_id"] != sp.TraceID() || req["span_id"] != sp.SpanID() {
		t.Errorf("trace ids missing or wrong in %v", rec)
	}
}
