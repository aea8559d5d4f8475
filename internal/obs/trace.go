package obs

import (
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Request outcomes, the label the request-latency histogram is split by.
const (
	// OutcomeHit: the tile was served from a middleware cache.
	OutcomeHit = "hit"
	// OutcomeMiss: the tile had to be fetched from the DBMS on the
	// response path.
	OutcomeMiss = "miss"
	// OutcomeShed: the request was refused before a tile was served (bad
	// query, unknown move, server closed). The default when a trace
	// finishes without an outcome being set.
	OutcomeShed = "shed"
)

// Bounds that keep one trace record's memory fixed regardless of input:
// hostile session ids or query strings are truncated, and a pathological
// request cannot grow a span list without limit.
const (
	maxSpans      = 32
	maxLabelBytes = 128
)

// Span is one named stage of a request, as an offset from the trace start.
type Span struct {
	Name string `json:"name"`
	// StartNS is the span's start, nanoseconds after the trace started.
	StartNS int64 `json:"start_ns"`
	// DurNS is the span's duration in nanoseconds.
	DurNS int64 `json:"duration_ns"`
}

// Trace is one completed request record: identity, attribution, outcome,
// total wall time and the per-stage span breakdown. It is a plain value —
// safe to copy, JSON-encode and retain in the ring buffer.
type Trace struct {
	ID      string    `json:"id"`
	Session string    `json:"session"`
	Target  string    `json:"target"`
	Outcome string    `json:"outcome"`
	Start   time.Time `json:"start"`
	DurNS   int64     `json:"duration_ns"`
	Spans   []Span    `json:"spans"`
}

// traceSeq numbers traces process-wide; the ID is its hex rendering.
var traceSeq atomic.Uint64

// truncateLabel bounds attacker-controlled strings before they enter the
// ring buffer.
func truncateLabel(s string) string {
	if len(s) > maxLabelBytes {
		return s[:maxLabelBytes]
	}
	return s
}

// ReqTrace is one in-progress request trace. All methods are nil-receiver
// safe, so call sites read cleanly whether tracing is enabled or not. A
// ReqTrace is used by one request goroutine at a time (the HTTP handler
// and the engine call it sequentially); it is not otherwise synchronized.
type ReqTrace struct {
	p        *Pipeline
	start    time.Time
	tr       Trace
	finished bool
}

// StartTrace begins a trace for one request. Returns nil (a usable no-op)
// when the pipeline itself is nil.
func (p *Pipeline) StartTrace(session, target string) *ReqTrace {
	if p == nil {
		return nil
	}
	now := time.Now()
	return &ReqTrace{
		p:     p,
		start: now,
		tr: Trace{
			ID:      "t-" + strconv.FormatUint(traceSeq.Add(1), 16),
			Session: truncateLabel(session),
			Target:  truncateLabel(target),
			Start:   now,
		},
	}
}

// ID returns the trace id ("" on a nil trace).
func (t *ReqTrace) ID() string {
	if t == nil {
		return ""
	}
	return t.tr.ID
}

// SetOutcome records the request's outcome (OutcomeHit / OutcomeMiss /
// OutcomeShed). Unset at Finish means OutcomeShed: the request never got
// as far as serving a tile.
func (t *ReqTrace) SetOutcome(outcome string) {
	if t == nil {
		return
	}
	t.tr.Outcome = outcome
}

// StartSpan opens a named span and returns the closure that ends it.
// Typical use: defer tr.StartSpan("cache_lookup")(). Past maxSpans the
// span is dropped (the record stays bounded) but the closure is still
// safe to call.
func (t *ReqTrace) StartSpan(name string) func() {
	if t == nil {
		return func() {}
	}
	start := time.Now()
	return func() {
		if t.finished || len(t.tr.Spans) >= maxSpans {
			return
		}
		t.tr.Spans = append(t.tr.Spans, Span{
			Name:    name,
			StartNS: start.Sub(t.start).Nanoseconds(),
			DurNS:   time.Since(start).Nanoseconds(),
		})
	}
}

// Finish completes the trace: the total duration is computed, the
// request-latency histogram for the outcome is fed, the record enters the
// ring buffer, and — when the pipeline has a logger — one debug line with
// the trace id is emitted. Idempotent; nil-safe.
func (t *ReqTrace) Finish() {
	if t == nil || t.finished {
		return
	}
	t.finished = true
	d := time.Since(t.start)
	t.tr.DurNS = d.Nanoseconds()
	if t.tr.Outcome == "" {
		t.tr.Outcome = OutcomeShed
	}
	t.p.requestHistogram(t.tr.Outcome).ObserveDuration(d)
	if t.p.Traces != nil {
		t.p.Traces.Add(t.tr)
	}
	if t.p.Log != nil {
		t.p.Log.Debug("request",
			"trace_id", t.tr.ID,
			"session", t.tr.Session,
			"target", t.tr.Target,
			"outcome", t.tr.Outcome,
			"duration", d,
			"spans", len(t.tr.Spans),
		)
	}
}

// TraceBuffer is a bounded ring of completed traces: the newest capacity
// records are retained, the oldest evicted first. Memory is bounded by
// construction — capacity records, each with capped label bytes and span
// count. Safe for concurrent use.
type TraceBuffer struct {
	mu    sync.Mutex
	buf   []Trace
	next  int
	count int
	added uint64
}

// DefaultTraceCapacity is the ring size when none is configured.
const DefaultTraceCapacity = 256

// NewTraceBuffer returns a ring retaining the last capacity traces
// (DefaultTraceCapacity when capacity <= 0).
func NewTraceBuffer(capacity int) *TraceBuffer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &TraceBuffer{buf: make([]Trace, capacity)}
}

// Add records one completed trace, evicting the oldest past capacity.
func (b *TraceBuffer) Add(tr Trace) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.buf[b.next] = tr
	b.next = (b.next + 1) % len(b.buf)
	if b.count < len(b.buf) {
		b.count++
	}
	b.added++
}

// Cap returns the ring capacity.
func (b *TraceBuffer) Cap() int { return len(b.buf) }

// Len returns how many traces are currently retained.
func (b *TraceBuffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.count
}

// Added returns how many traces have ever been recorded (retained or
// since evicted).
func (b *TraceBuffer) Added() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.added
}

// snapshotLocked copies the retained traces oldest-first.
func (b *TraceBuffer) snapshotLocked() []Trace {
	out := make([]Trace, 0, b.count)
	start := b.next - b.count
	if start < 0 {
		start += len(b.buf)
	}
	for i := 0; i < b.count; i++ {
		out = append(out, b.buf[(start+i)%len(b.buf)])
	}
	return out
}

// Snapshot returns the retained traces oldest-first (the eviction order).
func (b *TraceBuffer) Snapshot() []Trace {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.snapshotLocked()
}

// Slowest returns up to n retained traces ordered by total duration,
// slowest first (ties: oldest first, so the order is deterministic).
func (b *TraceBuffer) Slowest(n int) []Trace {
	b.mu.Lock()
	traces := b.snapshotLocked()
	b.mu.Unlock()
	sort.SliceStable(traces, func(i, j int) bool { return traces[i].DurNS > traces[j].DurNS })
	if n >= 0 && n < len(traces) {
		traces = traces[:n]
	}
	return traces
}
