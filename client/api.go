// Package client is the Go client for shelleyd, the resident
// verification-service daemon, and the home of its wire types. The
// server (internal/server) imports this package for the request and
// response schemas, so client and daemon can never drift: there is
// exactly one definition of every JSON body that crosses the wire.
package client

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	shelley "github.com/shelley-go/shelley"
	"github.com/shelley-go/shelley/internal/mine"
)

// Fingerprint returns the content fingerprint of a MicroPython source
// body: the key under which shelleyd keeps the loaded module (and its
// warm pipeline cache) resident. Clients that have POSTed a source
// once can re-check it cache-only by sending the fingerprint alone.
func Fingerprint(source string) string {
	// Hash through a small buffer: []byte(source) would copy the whole
	// body once per request.
	h := sha256.New()
	var chunk [512]byte
	for len(source) > 0 {
		n := copy(chunk[:], source)
		h.Write(chunk[:n])
		source = source[n:]
	}
	var sum [sha256.Size]byte
	return "sha256:" + hex.EncodeToString(h.Sum(sum[:0]))
}

// CheckRequest asks for full verification reports. Exactly one of
// Source and Fingerprint must be set: Source carries MicroPython text
// (loaded, checked, and made resident), Fingerprint names an
// already-resident module for a cache-only re-check (404 when the
// module is not resident).
type CheckRequest struct {
	Source      string `json:"source,omitempty"`
	Fingerprint string `json:"fingerprint,omitempty"`

	// Class restricts checking to one class; empty checks every class
	// in source order.
	Class string `json:"class,omitempty"`

	// Precise switches to exit-aware flattening (shelley.Precise).
	Precise bool `json:"precise,omitempty"`
}

// ResponseMeta carries transport-level metadata of a daemon response.
// It is populated by the client from HTTP headers and never crosses
// the wire in the JSON body (coalesced requests share one byte-exact
// body, so anything per-request must live in headers).
type ResponseMeta struct {
	// TraceID is the X-Shelley-Trace header of the response: the trace
	// ID the daemon ran (or would run) the request under — either the
	// one this client sent, or a server-generated one. Quote it when
	// correlating with daemon access logs or /v1/trace-export output.
	TraceID string `json:"-"`
}

func (m *ResponseMeta) setTraceID(id string) { m.TraceID = id }

// CheckResponse is the outcome of a /v1/check request.
type CheckResponse struct {
	ResponseMeta
	// Fingerprint identifies the (now resident) module; send it back
	// in later requests to skip re-uploading the source.
	Fingerprint string `json:"fingerprint"`

	// OK reports whether every checked class verified clean.
	OK bool `json:"ok"`

	// Reports are the per-class verification reports, in source order
	// (or the single requested class).
	Reports []*shelley.Report `json:"reports"`
}

// InferRequest asks for inferred per-operation behavior regexes
// (the paper's §3.2 inference) of one class.
type InferRequest struct {
	Source      string `json:"source,omitempty"`
	Fingerprint string `json:"fingerprint,omitempty"`

	// Class names the class to infer; required.
	Class string `json:"class"`

	// Operation restricts inference to one operation; empty infers
	// every operation in source order.
	Operation string `json:"operation,omitempty"`
}

// OperationBehavior is one operation's inferred behavior.
type OperationBehavior struct {
	Operation string `json:"operation"`

	// Behavior is ⟦p⟧ in the paper-verbatim concrete syntax.
	Behavior string `json:"behavior"`

	// Simplified is the language-preserving normalization of Behavior.
	Simplified string `json:"simplified"`
}

// InferResponse is the outcome of a /v1/infer request.
type InferResponse struct {
	ResponseMeta

	Fingerprint string              `json:"fingerprint"`
	Class       string              `json:"class"`
	Behaviors   []OperationBehavior `json:"behaviors"`
}

// TraceRequest asks whether a call sequence is a valid complete usage
// of a class (the membership oracle), optionally also replaying it as
// a flattened qualified trace against live subsystem instances.
type TraceRequest struct {
	Source      string `json:"source,omitempty"`
	Fingerprint string `json:"fingerprint,omitempty"`

	// Class names the class to drive; required.
	Class string `json:"class"`

	// Trace is the call sequence (operation names; qualified
	// "subsystem.op" names when Replay is set on a composite).
	Trace []string `json:"trace"`

	// Replay additionally replays the trace with Class.ReplayFlat and
	// reports the first protocol error.
	Replay bool `json:"replay,omitempty"`
}

// TraceResponse is the outcome of a /v1/trace request.
type TraceResponse struct {
	ResponseMeta

	Fingerprint string   `json:"fingerprint"`
	Class       string   `json:"class"`
	Trace       []string `json:"trace"`

	// Accepted reports trace membership under the specification
	// (angelic) semantics.
	Accepted bool `json:"accepted"`

	// ReplayError is the first protocol error of the flattened replay
	// (Replay requests only); empty for a clean complete usage.
	ReplayError string `json:"replay_error,omitempty"`
}

// ErrorResponse is the JSON body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
}

// WatchRequest is the body of POST /v1/watch: push one source
// generation into a named watch session. The daemon diffs it against
// the session's resident generation at method granularity, re-verifies
// only the classes the diff invalidates (everything else is answered
// from the session's warm pipeline cache), and publishes the resulting
// WatchUpdate to every long-poller of the session.
type WatchRequest struct {
	// Session names the watch session; required. Sessions are created on
	// first use and keyed per daemon, so concurrent editors should pick
	// distinct names.
	Session string `json:"session"`

	// Source is the full MicroPython source of the new generation;
	// required (watch mode diffs server-side, so there is no
	// fingerprint-only form).
	Source string `json:"source"`

	// Precise switches the re-verification to exit-aware flattening.
	Precise bool `json:"precise,omitempty"`
}

// WatchDiff is the wire form of the daemon's generation diff: how the
// pushed source differs from the session's previous resident
// generation, at class granularity.
type WatchDiff struct {
	// Initial marks the session's first generation (everything Added).
	Initial bool `json:"initial,omitempty"`

	// Added, Removed, Changed, and Unchanged partition the union of the
	// two generations' class names, each sorted.
	Added     []string `json:"added,omitempty"`
	Removed   []string `json:"removed,omitempty"`
	Changed   []string `json:"changed,omitempty"`
	Unchanged []string `json:"unchanged,omitempty"`

	// ProtocolChanged lists the changed classes whose protocol surface
	// moved — only these invalidate their dependents' cached results.
	ProtocolChanged []string `json:"protocol_changed,omitempty"`

	// ChangedMethods maps each changed class to the names of its edited
	// or new operations.
	ChangedMethods map[string][]string `json:"changed_methods,omitempty"`

	// Invalidated is the predicted re-verification frontier: changed and
	// added classes plus dependents of protocol-level changes.
	Invalidated []string `json:"invalidated,omitempty"`
}

// WatchUpdate is one published re-check round of a watch session: the
// 200 body of POST /v1/watch and of a successful long-poll
// GET /v1/watch.
type WatchUpdate struct {
	ResponseMeta

	// Session echoes the session name; Seq is the generation's position
	// in the session (1 for the first push), strictly increasing.
	// Long-pollers pass the last Seq they saw as ?after=.
	Session string `json:"session"`
	Seq     uint64 `json:"seq"`

	// Fingerprint is the content fingerprint of this generation's
	// source.
	Fingerprint string `json:"fingerprint"`

	// OK reports whether every class of the generation verified clean.
	OK bool `json:"ok"`

	// Reports are the per-class verification reports in source order —
	// byte-identical to what a cold /v1/check of the same source yields,
	// whether each class was re-verified or answered from the session
	// cache.
	Reports []*shelley.Report `json:"reports"`

	// Diff is the generation diff against the previous push.
	Diff WatchDiff `json:"diff"`

	// ReusedReports counts classes answered from the session's warm
	// cache; CheckedClasses counts classes actually re-verified. Their
	// sum is the generation's class count.
	ReusedReports  int `json:"reused_reports"`
	CheckedClasses int `json:"checked_classes"`

	// ElapsedMicros is the wall time of the whole round (parse, diff,
	// re-check) in microseconds.
	ElapsedMicros int64 `json:"elapsed_micros"`
}

// BatchItem is one unit of a /v1/check-batch or /v1/jobs request. It
// carries the same fields as a CheckRequest: source text or a resident
// fingerprint, an optional class filter, and the precise-mode flag.
type BatchItem struct {
	// ID is an opaque client label echoed back on the item's record,
	// so streaming callers can correlate results without tracking
	// indices.
	ID string `json:"id,omitempty"`

	Source      string `json:"source,omitempty"`
	Fingerprint string `json:"fingerprint,omitempty"`
	Class       string `json:"class,omitempty"`
	Precise     bool   `json:"precise,omitempty"`
}

// BatchRequest is the body of POST /v1/check-batch (synchronous NDJSON
// stream) and POST /v1/jobs (async job submission).
type BatchRequest struct {
	Items []BatchItem `json:"items"`
}

// BatchRecord is one line of a batch NDJSON stream. Per-item records
// carry Index/ID/Status plus either Check (status 200) or Error; the
// final line of every well-formed stream is a terminal summary record
// with Done set. A missing terminal record means the stream was
// truncated in flight.
type BatchRecord struct {
	// Index is the item's position in the request (per-item records
	// only). Records arrive in completion order, not index order.
	Index int `json:"index"`

	// ID echoes the item's client-supplied label.
	ID string `json:"id,omitempty"`

	// Status is the item's outcome as an HTTP status code: 200 verified
	// (see Check), 400/404/413/422 per-item request errors, 499 client
	// canceled mid-stream, 503 admission refused under drain, 504
	// deadline expired. A non-200 item never fails the batch: the
	// stream keeps flowing and the terminal record counts it in Failed.
	Status int `json:"status,omitempty"`

	// Check is the item's CheckResponse, byte-identical to what a
	// single /v1/check of the same item would return (the two paths
	// share one coalesced execution and one encoder). Decode with
	// CheckResponse.
	Check json.RawMessage `json:"check,omitempty"`

	// Error is the item's error text for non-200 statuses.
	Error string `json:"error,omitempty"`

	// Done marks the terminal summary record closing the stream.
	Done bool `json:"done,omitempty"`

	// Total/Succeeded/Failed summarize the batch (terminal record
	// only). Total counts items, Succeeded status-200 records, Failed
	// everything else.
	Total     int `json:"total,omitempty"`
	Succeeded int `json:"succeeded,omitempty"`
	Failed    int `json:"failed,omitempty"`
}

// CheckResponse decodes the record's embedded check result; nil for
// non-200 records.
func (r *BatchRecord) CheckResponse() (*CheckResponse, error) {
	if len(r.Check) == 0 {
		return nil, nil
	}
	var resp CheckResponse
	if err := json.Unmarshal(r.Check, &resp); err != nil {
		return nil, fmt.Errorf("client: decoding batch record %d: %w", r.Index, err)
	}
	return &resp, nil
}

// SnapshotImportResponse is the body of PUT /v1/snapshot: how many
// artifact-store entries the daemon imported from the uploaded
// snapshot, and how many records it skipped (duplicates of entries it
// already held, or records that failed verification).
type SnapshotImportResponse struct {
	ResponseMeta

	Imported int `json:"imported"`
	Skipped  int `json:"skipped"`
}

// IngestEvent is one NDJSON line of a POST /v1/ingest frame: one
// observed usage (or usage prefix) of one class on one device. ClassFP
// is "<module-fingerprint>/<ClassName>"; Status is "ok"/"" for a
// complete usage, "partial"/"error" for a prefix. Aliased from the
// miner's wire type so daemon and client can never drift.
type IngestEvent = mine.Event

// IngestResponse is the 200 body of POST /v1/ingest: what happened to
// each decoded observation. Shed observations were dropped by a corpus
// bound (counted, never blocked); malformed and oversize lines were
// skipped without failing the frame.
type IngestResponse struct {
	ResponseMeta

	Received  int `json:"received"`
	Accepted  int `json:"accepted"`
	Shed      int `json:"shed"`
	Malformed int `json:"malformed,omitempty"`
	Oversize  int `json:"oversize,omitempty"`
}

// DriftReport is one class's conformance-drift verdict: "conformant",
// "under-approximated" (fleet inside the static model but not covering
// it), or "DRIFT" with a shortest offending trace. Aliased from the
// miner's wire type.
type DriftReport = mine.Report

// DriftResponse is the body of GET /v1/drift.
type DriftResponse struct {
	ResponseMeta

	Reports []DriftReport `json:"reports"`
}

// JobAccepted is the 202 body of POST /v1/jobs.
type JobAccepted struct {
	ResponseMeta

	// Job is the job ID; poll GET /v1/jobs/{id} or stream
	// GET /v1/jobs/{id}?stream=1.
	Job string `json:"job"`

	// Total is the number of items admitted.
	Total int `json:"total"`
}

// JobStatus is the poll body of GET /v1/jobs/{id}.
type JobStatus struct {
	ResponseMeta

	Job string `json:"job"`

	// State is "running" or "done".
	State string `json:"state"`

	Total     int `json:"total"`
	Completed int `json:"completed"`
	Failed    int `json:"failed"`

	// Records holds the per-item records accumulated so far; populated
	// only when the poll asks for them (?records=1).
	Records []BatchRecord `json:"records,omitempty"`
}
