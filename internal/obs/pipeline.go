package obs

import (
	"fmt"
	"io"
	"log/slog"
	"strings"
	"time"
)

// Config sets up a Pipeline.
type Config struct {
	// Logger, when set, makes every finished trace emit one structured
	// debug line carrying the trace id. Nil disables request logging.
	Logger *slog.Logger
}

// Pipeline is one deployment's shared observability hub: the fixed
// log-bucketed latency histograms every pipeline stage reports into, the
// completed-trace ring buffer, and the structured logger. One Pipeline is
// shared by the server, every session engine and cache, and the prefetch
// scheduler; all observe methods are nil-receiver safe so an
// uninstrumented deployment pays a single nil check per site.
type Pipeline struct {
	// RequestHit / RequestMiss / RequestShed split end-to-end /tile
	// latency by outcome (one histogram per outcome label value).
	RequestHit  *Histogram
	RequestMiss *Histogram
	RequestShed *Histogram
	// QueueWait is how long prefetch entries sat queued in the scheduler
	// before their DBMS fetch was issued (or joined another's).
	QueueWait *Histogram
	// BackendFetch is the DBMS fetch time, on the response path (sync
	// misses) and off it (prefetch fetches) alike.
	BackendFetch *Histogram
	// LeadTime is the prefetch lead time: cache insert of a prefetched
	// tile to its first consumption by a request. Long leads mean the
	// prefetcher ran usefully ahead; missing leads mean prefetches were
	// evicted unconsumed.
	LeadTime *Histogram
	// PushLead is the push-to-consume lead time: the frame that carried a
	// tile enqueued on a session's push stream to that tile's request
	// arriving. The push analogue of LeadTime — a positive lead means the
	// stream beat the pan.
	PushLead *Histogram
	// TileEncode is the wall time of tile payload encodings (JSON or
	// binary). With the encoded-payload cache on, only cache misses land
	// here — hits serve previously encoded bytes.
	TileEncode *Histogram
	// TileBytes is the size in bytes of /tile response payloads as written:
	// post content negotiation, post compression.
	TileBytes *Histogram

	// Traces is the bounded ring of completed request traces.
	Traces *TraceBuffer
	// Log is the deployment's structured logger (nil disables logging).
	Log *slog.Logger
}

// NewPipeline builds the shared observability hub. Bucket layouts are
// fixed log-scale ladders sized to each stage's expected range: request
// and backend latencies from 100µs to ~3.3s (the paper's 984 ms DBMS
// miss sits mid-ladder), queue waits from 10µs, lead times from 1 ms to
// ~33s (a prefetched tile may sit for many think-times before
// consumption), tile encodes from 1µs, and response payload sizes in
// byte-valued buckets from 64 B to ~1 GB.
func NewPipeline(cfg Config) *Pipeline {
	return &Pipeline{
		RequestHit:   NewHistogram(ExpBuckets(100e-6, 2, 15)),
		RequestMiss:  NewHistogram(ExpBuckets(100e-6, 2, 15)),
		RequestShed:  NewHistogram(ExpBuckets(100e-6, 2, 15)),
		QueueWait:    NewHistogram(ExpBuckets(10e-6, 2, 15)),
		BackendFetch: NewHistogram(ExpBuckets(100e-6, 2, 15)),
		LeadTime:     NewHistogram(ExpBuckets(1e-3, 2, 15)),
		PushLead:     NewHistogram(ExpBuckets(1e-3, 2, 15)),
		TileEncode:   NewHistogram(ExpBuckets(1e-6, 2, 15)),
		TileBytes:    NewHistogram(ExpBuckets(64, 4, 12)),
		Traces:       newTraceBuffer(),
		Log:          cfg.Logger,
	}
}

// requestHistogram maps an outcome label to its histogram.
func (p *Pipeline) requestHistogram(outcome string) *Histogram {
	if p == nil {
		return nil
	}
	switch outcome {
	case OutcomeHit:
		return p.RequestHit
	case OutcomeMiss:
		return p.RequestMiss
	default:
		return p.RequestShed
	}
}

// ObserveQueueWait records one scheduler queue wait. Nil-safe.
func (p *Pipeline) ObserveQueueWait(d time.Duration) {
	if p == nil {
		return
	}
	p.QueueWait.ObserveDuration(d)
}

// ObserveBackendFetch records one DBMS fetch duration. Nil-safe.
func (p *Pipeline) ObserveBackendFetch(d time.Duration) {
	if p == nil {
		return
	}
	p.BackendFetch.ObserveDuration(d)
}

// ObserveLeadTime records one prefetch insert-to-consume lead. Nil-safe.
func (p *Pipeline) ObserveLeadTime(d time.Duration) {
	if p == nil {
		return
	}
	p.LeadTime.ObserveDuration(d)
}

// ObservePushLead records one push-to-consume lead. Nil-safe.
func (p *Pipeline) ObservePushLead(d time.Duration) {
	if p == nil {
		return
	}
	p.PushLead.ObserveDuration(d)
}

// ObserveTileEncode records one tile payload encode duration. Nil-safe.
func (p *Pipeline) ObserveTileEncode(d time.Duration) {
	if p == nil {
		return
	}
	p.TileEncode.ObserveDuration(d)
}

// ObserveTileBytes records the byte size of one written /tile response
// payload. Nil-safe.
func (p *Pipeline) ObserveTileBytes(n int) {
	if p == nil {
		return
	}
	p.TileBytes.Observe(float64(n))
}

// NewLogger builds a structured text logger at the named level (debug,
// info, warn, error). It is the -log-level flag's backing: requests log
// at debug, lifecycle events at info, failures at warn/error.
func NewLogger(w io.Writer, level string) (*slog.Logger, error) {
	var lv slog.Level
	switch strings.ToLower(level) {
	case "debug":
		lv = slog.LevelDebug
	case "info":
		lv = slog.LevelInfo
	case "warn", "warning":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	default:
		return nil, fmt.Errorf("obs: unknown log level %q (want debug, info, warn or error)", level)
	}
	return slog.New(slog.NewTextHandler(w, &slog.HandlerOptions{Level: lv})), nil
}
