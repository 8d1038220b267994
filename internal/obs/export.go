package obs

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// Ring is a fixed-capacity in-memory exporter: the most recent spans,
// oldest first on snapshot. It is the daemon's always-on trace buffer,
// served by /v1/trace-export, and the staging area the CLIs drain into
// a -trace file.
//
// Slots hold spans flattened into pointer-free byte blobs rather than
// SpanData values. A resident SpanData ring pins thousands of small
// objects (ID strings, attr slices, count maps) that the garbage
// collector re-marks on every cycle; under a high-rate warm-cache
// workload that scanning, not span creation, was the dominant tracing
// cost (EXPERIMENTS.md P3). A blob ring retains one byte slice per
// slot — nothing inside it for the collector to traverse — and reuses
// each slot's backing array across evictions.
type Ring struct {
	mu    sync.Mutex
	slots [][]byte
	next  int
	full  bool
	total uint64
}

// NewRing returns a ring holding up to capacity spans (minimum 1).
func NewRing(capacity int) *Ring {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring{slots: make([][]byte, capacity)}
}

// Export records one span, evicting the oldest when full.
func (r *Ring) Export(s SpanData) {
	r.mu.Lock()
	r.slots[r.next] = appendSpan(r.slots[r.next][:0], s)
	r.next = (r.next + 1) % len(r.slots)
	if r.next == 0 {
		r.full = true
	}
	r.total++
	r.mu.Unlock()
}

// Snapshot returns the buffered spans, oldest first.
func (r *Ring) Snapshot() []SpanData {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]SpanData, 0, len(r.slots))
	if r.full {
		for _, b := range r.slots[r.next:] {
			out = append(out, decodeSpan(b))
		}
	}
	for _, b := range r.slots[:r.next] {
		out = append(out, decodeSpan(b))
	}
	return out
}

// appendSpan flattens s onto b in a private length-prefixed binary
// form: the four identity strings, varint start/end Unix nanos, then
// the attrs and (sorted) counters. decodeSpan is its exact inverse.
func appendSpan(b []byte, s SpanData) []byte {
	b = appendString(b, s.TraceID)
	b = appendString(b, s.SpanID)
	b = appendString(b, s.ParentID)
	b = appendString(b, s.Name)
	b = binary.AppendVarint(b, s.Start.UnixNano())
	b = binary.AppendVarint(b, s.End.UnixNano())
	b = binary.AppendUvarint(b, uint64(len(s.Attrs)))
	for _, a := range s.Attrs {
		b = appendString(b, a.Key)
		b = appendString(b, a.Value)
	}
	b = binary.AppendUvarint(b, uint64(len(s.Counts)))
	for _, k := range sortedCountKeys(s.Counts) {
		b = appendString(b, k)
		b = binary.AppendUvarint(b, s.Counts[k])
	}
	return b
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func decodeSpan(b []byte) SpanData {
	var s SpanData
	s.TraceID, b = takeString(b)
	s.SpanID, b = takeString(b)
	s.ParentID, b = takeString(b)
	s.Name, b = takeString(b)
	start, n := binary.Varint(b)
	end, m := binary.Varint(b[n:])
	b = b[n+m:]
	s.Start = time.Unix(0, start)
	s.End = time.Unix(0, end)
	nattrs, n := binary.Uvarint(b)
	b = b[n:]
	if nattrs > 0 {
		s.Attrs = make([]Attr, 0, nattrs)
		for i := uint64(0); i < nattrs; i++ {
			var a Attr
			a.Key, b = takeString(b)
			a.Value, b = takeString(b)
			s.Attrs = append(s.Attrs, a)
		}
	}
	ncounts, n := binary.Uvarint(b)
	b = b[n:]
	if ncounts > 0 {
		s.Counts = make(map[string]uint64, ncounts)
		for i := uint64(0); i < ncounts; i++ {
			var k string
			k, b = takeString(b)
			v, n := binary.Uvarint(b)
			b = b[n:]
			s.Counts[k] = v
		}
	}
	return s
}

func takeString(b []byte) (string, []byte) {
	n, sz := binary.Uvarint(b)
	return string(b[sz : sz+int(n)]), b[sz+int(n):]
}

// chromeEvent is one trace-event in the Chrome/Perfetto JSON schema
// (ph "X" = complete event with ts+dur, ph "M" = metadata).
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeFile is the object form of the trace-event format, loadable by
// chrome://tracing and ui.perfetto.dev.
type chromeFile struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace renders spans as Chrome trace-event JSON. Each
// trace ID becomes its own thread row (tid assigned in order of first
// appearance, with a thread_name metadata record naming it), so a
// multi-request export reads as stacked per-request flame timelines.
func WriteChromeTrace(w io.Writer, spans []SpanData) error {
	file := chromeFile{DisplayTimeUnit: "ms", TraceEvents: []chromeEvent{}}
	tids := make(map[string]int)
	for _, s := range spans {
		tid, ok := tids[s.TraceID]
		if !ok {
			tid = len(tids) + 1
			tids[s.TraceID] = tid
			file.TraceEvents = append(file.TraceEvents, chromeEvent{
				Name: "thread_name",
				Ph:   "M",
				Pid:  1,
				Tid:  tid,
				Args: map[string]any{"name": "trace " + s.TraceID},
			})
		}
		args := make(map[string]any, len(s.Attrs)+len(s.Counts)+2)
		args["trace_id"] = s.TraceID
		args["span_id"] = s.SpanID
		for _, a := range s.Attrs {
			args[a.Key] = a.Value
		}
		for _, k := range sortedCountKeys(s.Counts) {
			args[k] = s.Counts[k]
		}
		// Integer microseconds: epoch nanos exceed float64's exact
		// integer range, so divide before converting. Durations are
		// small; fractional microseconds survive for them.
		file.TraceEvents = append(file.TraceEvents, chromeEvent{
			Name: s.Name,
			Cat:  "shelley",
			Ph:   "X",
			Ts:   float64(s.Start.UnixMicro()),
			Dur:  float64(s.End.Sub(s.Start).Nanoseconds()) / 1e3,
			Pid:  1,
			Tid:  tid,
			Args: args,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(file)
}

// otlpKeyValue / otlpSpan / otlpFile mirror the OTLP/JSON trace schema
// closely enough that standard collectors and viewers ingest the file.
type otlpValue struct {
	StringValue string `json:"stringValue,omitempty"`
	IntValue    string `json:"intValue,omitempty"`
}

type otlpKeyValue struct {
	Key   string    `json:"key"`
	Value otlpValue `json:"value"`
}

type otlpSpan struct {
	TraceID           string         `json:"traceId"`
	SpanID            string         `json:"spanId"`
	ParentSpanID      string         `json:"parentSpanId,omitempty"`
	Name              string         `json:"name"`
	Kind              int            `json:"kind"`
	StartTimeUnixNano string         `json:"startTimeUnixNano"`
	EndTimeUnixNano   string         `json:"endTimeUnixNano"`
	Attributes        []otlpKeyValue `json:"attributes,omitempty"`
}

type otlpScopeSpans struct {
	Scope struct {
		Name string `json:"name"`
	} `json:"scope"`
	Spans []otlpSpan `json:"spans"`
}

type otlpResourceSpans struct {
	Resource struct {
		Attributes []otlpKeyValue `json:"attributes"`
	} `json:"resource"`
	ScopeSpans []otlpScopeSpans `json:"scopeSpans"`
}

type otlpFile struct {
	ResourceSpans []otlpResourceSpans `json:"resourceSpans"`
}

// WriteOTLP renders spans as OTLP-style JSON (one resource, one scope,
// service.name "shelley").
func WriteOTLP(w io.Writer, spans []SpanData) error {
	var res otlpResourceSpans
	res.Resource.Attributes = []otlpKeyValue{{
		Key: "service.name", Value: otlpValue{StringValue: "shelley"},
	}}
	scope := otlpScopeSpans{Spans: []otlpSpan{}}
	scope.Scope.Name = "github.com/shelley-go/shelley/internal/obs"
	for _, s := range spans {
		o := otlpSpan{
			TraceID:           s.TraceID,
			SpanID:            s.SpanID,
			ParentSpanID:      s.ParentID,
			Name:              s.Name,
			Kind:              1, // SPAN_KIND_INTERNAL
			StartTimeUnixNano: fmt.Sprint(s.Start.UnixNano()),
			EndTimeUnixNano:   fmt.Sprint(s.End.UnixNano()),
		}
		for _, a := range s.Attrs {
			o.Attributes = append(o.Attributes, otlpKeyValue{Key: a.Key, Value: otlpValue{StringValue: a.Value}})
		}
		for _, k := range sortedCountKeys(s.Counts) {
			o.Attributes = append(o.Attributes, otlpKeyValue{Key: k, Value: otlpValue{IntValue: fmt.Sprint(s.Counts[k])}})
		}
		scope.Spans = append(scope.Spans, o)
	}
	res.ScopeSpans = []otlpScopeSpans{scope}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(otlpFile{ResourceSpans: []otlpResourceSpans{res}})
}

// WriteFile writes spans to path in the named format: "chrome"
// (default for any unrecognized value is an error) or "otlp". The
// shared -trace flag of the CLIs lands here.
func WriteFile(path, format string, spans []SpanData) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	switch format {
	case "", "chrome":
		err = WriteChromeTrace(f, spans)
	case "otlp":
		err = WriteOTLP(f, spans)
	default:
		err = fmt.Errorf("obs: unknown trace format %q (want chrome or otlp)", format)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
