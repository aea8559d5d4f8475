package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestTraceBufferEvictionOrder pins the ring semantics: the newest
// capacity traces are retained and Snapshot returns them oldest-first.
func TestTraceBufferEvictionOrder(t *testing.T) {
	b := NewTraceBuffer(3)
	for i := 0; i < 5; i++ {
		b.Add(Trace{ID: fmt.Sprintf("t-%d", i)})
	}
	if b.Cap() != 3 || b.Len() != 3 {
		t.Fatalf("Cap/Len = %d/%d, want 3/3", b.Cap(), b.Len())
	}
	if b.Added() != 5 {
		t.Fatalf("Added = %d, want 5", b.Added())
	}
	snap := b.Snapshot()
	var ids []string
	for _, tr := range snap {
		ids = append(ids, tr.ID)
	}
	if got := strings.Join(ids, ","); got != "t-2,t-3,t-4" {
		t.Fatalf("retained %s, want t-2,t-3,t-4 (oldest evicted first)", got)
	}
}

func TestTraceBufferDefaultCapacity(t *testing.T) {
	if got := NewTraceBuffer(0).Cap(); got != DefaultTraceCapacity {
		t.Fatalf("default capacity = %d, want %d", got, DefaultTraceCapacity)
	}
}

// TestTraceBufferSlowest pins ordering: by duration descending, ties
// broken oldest-first so repeated calls return identical slices.
func TestTraceBufferSlowest(t *testing.T) {
	b := NewTraceBuffer(8)
	for i, dur := range []int64{30, 10, 30, 50, 20} {
		b.Add(Trace{ID: fmt.Sprintf("t-%d", i), DurNS: dur})
	}
	top := b.Slowest(3)
	var ids []string
	for _, tr := range top {
		ids = append(ids, tr.ID)
	}
	// 50 (t-3), then the two 30s oldest-first (t-0 before t-2).
	if got := strings.Join(ids, ","); got != "t-3,t-0,t-2" {
		t.Fatalf("Slowest(3) = %s, want t-3,t-0,t-2", got)
	}
	if got := len(b.Slowest(100)); got != 5 {
		t.Fatalf("Slowest(100) returned %d traces, want 5", got)
	}
}

// TestReqTraceNilSafe: every method on a nil trace (tracing disabled) is
// a usable no-op.
func TestReqTraceNilSafe(t *testing.T) {
	var p *Pipeline
	tr := p.StartTrace("s", "q")
	if tr != nil {
		t.Fatal("nil pipeline should produce a nil trace")
	}
	if tr.ID() != "" {
		t.Fatal("nil trace ID should be empty")
	}
	tr.SetOutcome(OutcomeHit)
	tr.StartSpan("span")()
	tr.Finish()
	p.ObserveQueueWait(time.Second)
	p.ObserveBackendFetch(time.Second)
	p.ObserveLeadTime(time.Second)
}

func TestReqTraceSpansAndFinish(t *testing.T) {
	p := NewPipeline(Config{})
	tr := p.StartTrace("sess", "level=1&x=2&y=3")
	if tr.ID() == "" {
		t.Fatal("trace has no id")
	}
	end := tr.StartSpan("backend_fetch")
	time.Sleep(2 * time.Millisecond)
	end()
	tr.SetOutcome(OutcomeMiss)
	tr.Finish()
	tr.Finish() // idempotent: must not double-count

	if got := p.RequestMiss.Snapshot().Count; got != 1 {
		t.Fatalf("miss histogram count = %d, want 1", got)
	}
	traces := p.Traces.Snapshot()
	if len(traces) != 1 {
		t.Fatalf("buffer has %d traces, want 1", len(traces))
	}
	rec := traces[0]
	if rec.Outcome != OutcomeMiss || rec.Session != "sess" {
		t.Fatalf("trace record = %+v", rec)
	}
	if len(rec.Spans) != 1 || rec.Spans[0].Name != "backend_fetch" {
		t.Fatalf("spans = %+v", rec.Spans)
	}
	if rec.Spans[0].DurNS <= 0 || rec.Spans[0].DurNS > rec.DurNS {
		t.Fatalf("span duration %d outside trace duration %d", rec.Spans[0].DurNS, rec.DurNS)
	}
}

func TestReqTraceDefaultsToShed(t *testing.T) {
	p := NewPipeline(Config{})
	p.StartTrace("s", "bad query").Finish()
	if got := p.RequestShed.Snapshot().Count; got != 1 {
		t.Fatalf("shed histogram count = %d, want 1", got)
	}
	if got := p.Traces.Snapshot()[0].Outcome; got != OutcomeShed {
		t.Fatalf("outcome = %q, want %q", got, OutcomeShed)
	}
}

// TestReqTraceBounded: hostile labels are truncated and the span list is
// capped, so one record's memory stays fixed.
func TestReqTraceBounded(t *testing.T) {
	p := NewPipeline(Config{})
	long := strings.Repeat("x", 10*maxLabelBytes)
	tr := p.StartTrace(long, long)
	for i := 0; i < maxSpans+10; i++ {
		tr.StartSpan("s")()
	}
	tr.Finish()
	rec := p.Traces.Snapshot()[0]
	if len(rec.Session) != maxLabelBytes || len(rec.Target) != maxLabelBytes {
		t.Fatalf("labels not truncated: session %d bytes, target %d bytes", len(rec.Session), len(rec.Target))
	}
	if len(rec.Spans) != maxSpans {
		t.Fatalf("span list grew to %d, cap is %d", len(rec.Spans), maxSpans)
	}
	if _, err := json.Marshal(rec); err != nil {
		t.Fatalf("trace record not JSON-encodable: %v", err)
	}
}

func TestReqTraceLogsWithTraceID(t *testing.T) {
	var buf bytes.Buffer
	logger, err := NewLogger(&buf, "debug")
	if err != nil {
		t.Fatal(err)
	}
	p := NewPipeline(Config{Logger: logger})
	tr := p.StartTrace("sess", "q")
	tr.SetOutcome(OutcomeHit)
	tr.Finish()
	line := buf.String()
	if !strings.Contains(line, "trace_id="+tr.ID()) || !strings.Contains(line, "outcome=hit") {
		t.Fatalf("log line missing trace fields: %q", line)
	}
}

func TestNewLoggerLevels(t *testing.T) {
	var buf bytes.Buffer
	logger, err := NewLogger(&buf, "warn")
	if err != nil {
		t.Fatal(err)
	}
	logger.Info("quiet")
	logger.Warn("loud")
	out := buf.String()
	if strings.Contains(out, "quiet") || !strings.Contains(out, "loud") {
		t.Fatalf("warn-level logger output: %q", out)
	}
	if _, err := NewLogger(&buf, "nope"); err == nil {
		t.Fatal("NewLogger accepted an unknown level")
	}
}

func TestPipelineDisabledTraceBuffer(t *testing.T) {
	p := NewPipeline(Config{TraceCapacity: -1})
	if p.Traces != nil {
		t.Fatal("negative TraceCapacity should disable the buffer")
	}
	tr := p.StartTrace("s", "q")
	tr.SetOutcome(OutcomeHit)
	tr.Finish() // histograms still work without a buffer
	if got := p.RequestHit.Snapshot().Count; got != 1 {
		t.Fatalf("hit count = %d, want 1", got)
	}
}

func BenchmarkTraceRecord(b *testing.B) {
	p := NewPipeline(Config{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr := p.StartTrace("bench", "level=1&x=2&y=3")
		tr.StartSpan("cache_lookup")()
		tr.SetOutcome(OutcomeHit)
		tr.Finish()
	}
}

func BenchmarkTraceBufferAdd(b *testing.B) {
	buf := NewTraceBuffer(DefaultTraceCapacity)
	tr := Trace{ID: "t-1", Session: "s", Target: "q", Outcome: OutcomeHit, Spans: []Span{{Name: "x"}}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf.Add(tr)
	}
}
