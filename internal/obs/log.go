package obs

import (
	"context"
	"log/slog"
)

// logHandler decorates a slog.Handler so every record emitted under a
// traced context carries trace_id and span_id attributes — the join
// key between log lines and exported spans.
type logHandler struct {
	inner slog.Handler
}

// NewLogHandler wraps inner with trace/span ID injection.
func NewLogHandler(inner slog.Handler) slog.Handler {
	return &logHandler{inner: inner}
}

func (h *logHandler) Enabled(ctx context.Context, level slog.Level) bool {
	return h.inner.Enabled(ctx, level)
}

func (h *logHandler) Handle(ctx context.Context, rec slog.Record) error {
	if s := SpanFrom(ctx); s != nil {
		rec.AddAttrs(
			slog.String("trace_id", s.TraceID()),
			slog.String("span_id", s.SpanID()),
		)
	}
	return h.inner.Handle(ctx, rec)
}

func (h *logHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	return &logHandler{inner: h.inner.WithAttrs(attrs)}
}

func (h *logHandler) WithGroup(name string) slog.Handler {
	return &logHandler{inner: h.inner.WithGroup(name)}
}
