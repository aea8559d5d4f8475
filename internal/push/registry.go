package push

import (
	"sync"
	"time"

	"forecache/internal/obs"
	"forecache/internal/tile"
)

// Defaults and bounds.
const (
	// streamBuffer is the per-stream frame buffer: pushes beyond it are
	// dropped (the cache still holds the tile; the pull path still works).
	streamBuffer = 64
	// DefaultHeartbeat is the idle-stream heartbeat interval.
	DefaultHeartbeat = 15 * time.Second
	// pushedAtCap bounds the per-session pushed-coordinate tracker behind
	// the push-to-consume lead-time metric: a session remembers its last
	// pushedAtCap pushes.
	pushedAtCap = 2048
	// drainAlpha is the EWMA weight of the newest drain-rate sample.
	drainAlpha = 0.3
)

// Config sets up a Registry.
type Config struct {
	// Heartbeat is how often an idle stream emits a heartbeat frame.
	// Default DefaultHeartbeat.
	Heartbeat time.Duration
	// Obs, when set, receives push-to-consume lead times (frame enqueued to
	// the tile's request arriving). Nil is a no-op.
	Obs *obs.Pipeline
	// Encoded, when set, is the deployment's encoded-payload cache: every
	// frame pushed onto an SSE stream carries the tile's memoized JSON body
	// (Frame.Payload), so a tile delivered to N attached streams — and to
	// the /tile pull path — is encoded exactly once. Nil keeps the
	// per-frame marshal. Binary streams never ask for the JSON variant.
	Encoded *tile.EncodedCache
	// Now overrides time.Now (test seam).
	Now func() time.Time
}

// Stats snapshots registry activity since construction.
type Stats struct {
	// Open is the number of streams attached right now.
	Open int `json:"open"`
	// Opened counts stream attachments ever (reconnects included).
	Opened int `json:"opened"`
	// Pushed counts tile frames enqueued to streams (backfill included).
	Pushed int `json:"pushed"`
	// Backfilled counts the subset of Pushed replayed from the server-side
	// cache on re-attach.
	Backfilled int `json:"backfilled"`
	// Dropped counts frames lost to a full stream buffer or a detached
	// session.
	Dropped int `json:"dropped"`
	// Heartbeats counts heartbeat frames written.
	Heartbeats int `json:"heartbeats"`
	// Consumed counts pushed tiles whose session later requested them (each
	// observes one push-to-consume lead time).
	Consumed int `json:"consumed"`
	// Bytes counts frame bytes written to streams, heartbeats included.
	Bytes int64 `json:"bytes"`
	// DrainRates maps each open stream's session to its measured drain rate
	// in bytes per second (0 until the first write is recorded).
	DrainRates map[string]float64 `json:"drain_bytes_per_sec,omitempty"`
}

// sessionState is the per-session accounting that outlives one stream
// attachment: the measured drain rate (the scheduler's bandwidth term) and
// the pushed-coordinate tracker (the lead-time metric). It survives a
// client reconnect and dies with the session (Detach) or the registry.
type sessionState struct {
	bps      float64                  // EWMA drained bytes per second
	avgBytes float64                  // EWMA frame size in bytes
	pushedAt map[tile.Coord]pushStamp // unconsumed pushes by coordinate
	order    []pushRef                // the last pushedAtCap pushes, oldest first
}

// pushStamp is a coordinate's latest push: when it was enqueued, and n,
// the registry's push count at that moment.
type pushStamp struct {
	at time.Time
	n  int
}

// pushRef names one push in the order: its coordinate and push count n,
// which tell it apart from a later push of the same coordinate.
type pushRef struct {
	c tile.Coord
	n int
}

// Stream is one attached session stream: a bounded frame buffer the
// scheduler pushes into and the server's stream handler drains, plus a
// done channel closed when the stream is superseded, its session is
// evicted, or the registry closes.
type Stream struct {
	session string
	binary  bool // framed by AppendBinary: frames carry no JSON payload
	frames  chan Frame
	done    chan struct{}
	closed  bool   // guarded by reg.mu
	seq     uint64 // guarded by reg.mu
}

// Frames is the buffered frame channel the stream handler drains.
func (st *Stream) Frames() <-chan Frame { return st.frames }

// Done is closed when the stream must end: superseded by a re-attach,
// session evicted, or registry closed.
func (st *Stream) Done() <-chan struct{} { return st.done }

// Registry is the deployment's push-stream table, shared by the HTTP
// server (attach/teardown, frame writing) and the prefetch scheduler
// (frame dispatch, bandwidth-aware admission). Safe for concurrent use.
type Registry struct {
	cfg Config

	mu       sync.Mutex
	streams  map[string]*Stream
	sessions map[string]*sessionState
	closed   bool

	opened, pushed, backfilled, dropped, heartbeats, consumed int
	bytes                                                     int64
}

// NewRegistry builds a stream registry.
func NewRegistry(cfg Config) *Registry {
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = DefaultHeartbeat
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Registry{
		cfg:      cfg,
		streams:  make(map[string]*Stream),
		sessions: make(map[string]*sessionState),
	}
}

// HeartbeatInterval returns the configured idle-stream heartbeat cadence.
func (r *Registry) HeartbeatInterval() time.Duration { return r.cfg.Heartbeat }

// Attach registers an SSE stream for session, superseding (and closing)
// any stream the session already has — the newest connection wins, which
// is what makes client reconnects safe. Returns nil after Close.
func (r *Registry) Attach(session string) *Stream { return r.attach(session, false) }

// AttachBinary is Attach for a stream the handler frames with AppendBinary
// around the memoized FCT3 body: its frames get no JSON Payload.
func (r *Registry) AttachBinary(session string) *Stream { return r.attach(session, true) }

func (r *Registry) attach(session string, binary bool) *Stream {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil
	}
	if old := r.streams[session]; old != nil {
		r.closeStreamLocked(old)
	}
	st := &Stream{
		session: session,
		binary:  binary,
		frames:  make(chan Frame, streamBuffer),
		done:    make(chan struct{}),
	}
	r.streams[session] = st
	if r.sessions[session] == nil {
		r.sessions[session] = &sessionState{pushedAt: make(map[tile.Coord]pushStamp)}
	}
	r.opened++
	return st
}

// Detach ends session's stream and forgets its push state entirely — the
// session-eviction path (TTL/LRU sweep, Server.Close teardown). The stream
// handler observes Done and returns.
func (r *Registry) Detach(session string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if st := r.streams[session]; st != nil {
		r.closeStreamLocked(st)
		delete(r.streams, session)
	}
	delete(r.sessions, session)
}

// Release ends st if it is still the session's current stream — the
// client-dropped path. Unlike Detach it keeps the session's drain-rate and
// lead-time state, so a reconnect resumes with a warm bandwidth estimate.
func (r *Registry) Release(st *Stream) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.closeStreamLocked(st)
	if r.streams[st.session] == st {
		delete(r.streams, st.session)
	}
}

// Close ends every stream and refuses further attaches and pushes.
// Idempotent; it only signals — it never waits on a stream writer, so a
// Server.Close racing a mid-write handler cannot deadlock here.
func (r *Registry) Close() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.closed = true
	for session, st := range r.streams {
		r.closeStreamLocked(st)
		delete(r.streams, session)
	}
	r.sessions = make(map[string]*sessionState)
}

// closeStreamLocked closes st's done channel exactly once.
func (r *Registry) closeStreamLocked(st *Stream) {
	if !st.closed {
		st.closed = true
		close(st.done)
	}
}

// Push enqueues one freshly fetched tile onto session's stream, reporting
// whether the frame was accepted (false: no stream attached, buffer full,
// or registry closed). This is the prefetch scheduler's dispatch hook
// (prefetch.PushSink); it never blocks — a slow consumer loses frames, not
// the worker pool — and nothing is encoded for a session without a stream.
func (r *Registry) Push(session, model string, c tile.Coord, score float64, t *tile.Tile) bool {
	r.mu.Lock()
	st := r.streams[session]
	r.mu.Unlock()
	return st != nil && r.enqueue(st, Frame{Type: FrameTile, Model: model, Score: score, Coord: c, Tile: t})
}

// Backfill enqueues one cached tile onto st after a re-attach, so the
// client's slot buffer recovers what the dropped stream already carried
// without re-fetching (and without touching cache outcome accounting —
// the caller reads the cache through a side-effect-free snapshot).
func (r *Registry) Backfill(st *Stream, model string, c tile.Coord, t *tile.Tile) bool {
	return r.enqueue(st, Frame{Type: FrameTile, Model: model, Coord: c, Tile: t, Backfill: true})
}

// enqueue puts f on st unless st was superseded or released meanwhile (the
// tile, already cached, reaches the replacing stream as backfill). A frame
// for an SSE stream first takes the tile's memoized JSON body — before the
// registry lock, so a first-touch encode stalls no other stream; without
// it Encode marshals per frame.
func (r *Registry) enqueue(st *Stream, f Frame) bool {
	if !st.binary && r.cfg.Encoded != nil && f.Tile != nil {
		if p, err := r.cfg.Encoded.Get(f.Coord, tile.FormatJSON, false, f.Tile.EncodeJSON); err == nil {
			f.Payload = p
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.streams[st.session] != st {
		return false
	}
	session := st.session
	st.seq++
	f.Seq = st.seq
	f.Session = session
	select {
	case st.frames <- f:
	default:
		r.dropped++
		return false
	}
	r.pushed++
	if f.Backfill {
		r.backfilled++
	}
	// Forget the oldest of the last pushedAtCap pushes. Its coordinate's
	// stamp goes with it only if it is still that push's: a consume has
	// already removed it, and a later push of the coordinate replaced it.
	ss := r.sessions[session]
	if len(ss.order) == pushedAtCap {
		if v := ss.order[0]; ss.pushedAt[v.c].n == v.n {
			delete(ss.pushedAt, v.c)
		}
		ss.order = ss.order[1:]
	}
	ss.order = append(ss.order, pushRef{c: f.Coord, n: r.pushed})
	ss.pushedAt[f.Coord] = pushStamp{at: r.cfg.Now(), n: r.pushed}
	return true
}

// Consumed records that session requested coordinate c: if c was pushed
// down the session's stream and not yet consumed, the push-to-consume
// lead time is observed and true is returned. The server calls this on
// every /tile request of a push-enabled deployment.
func (r *Registry) Consumed(session string, c tile.Coord) (time.Duration, bool) {
	r.mu.Lock()
	ss := r.sessions[session]
	if ss == nil {
		r.mu.Unlock()
		return 0, false
	}
	stamp, ok := ss.pushedAt[c]
	if !ok {
		r.mu.Unlock()
		return 0, false
	}
	delete(ss.pushedAt, c)
	r.consumed++
	lead := r.cfg.Now().Sub(stamp.at)
	obsPipe := r.cfg.Obs
	r.mu.Unlock()
	obsPipe.ObservePushLead(lead)
	return lead, true
}

// RecordWrite feeds one stream write into the session's drain-rate EWMA:
// n bytes flushed to the connection in elapsed wall time. The handler
// calls it after every frame write; the scheduler's bandwidth-aware
// admission term reads the resulting rate through DrainDelay.
func (r *Registry) RecordWrite(session string, n int, elapsed time.Duration) {
	if n <= 0 || elapsed <= 0 {
		return
	}
	rate := float64(n) / elapsed.Seconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	ss := r.sessions[session]
	if ss == nil {
		return
	}
	if ss.bps == 0 {
		ss.bps = rate
	} else {
		ss.bps = drainAlpha*rate + (1-drainAlpha)*ss.bps
	}
	if ss.avgBytes == 0 {
		ss.avgBytes = float64(n)
	} else {
		ss.avgBytes = drainAlpha*float64(n) + (1-drainAlpha)*ss.avgBytes
	}
}

// CountWrite counts one frame of n bytes a stream handler is about to
// write — count, then publish: a client holding the frame must never read
// a counter that excludes it (a failed write leaves the counters one
// ahead, which is the harmless direction).
func (r *Registry) CountWrite(n int, heartbeat bool) {
	r.mu.Lock()
	r.bytes += int64(n)
	if heartbeat {
		r.heartbeats++
	}
	r.mu.Unlock()
}

// DrainDelay estimates how long session's connection takes to deliver one
// more tile frame: the EWMA frame size over the measured drain rate. It
// returns 0 for sessions without an attached stream or without a measured
// rate yet — the scheduler's admission term then adds nothing, exactly the
// pull-path behavior. This is prefetch.PushSink's bandwidth hook.
func (r *Registry) DrainDelay(session string) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.streams[session]
	if st == nil || st.closed {
		return 0
	}
	ss := r.sessions[session]
	if ss == nil || ss.bps <= 0 || ss.avgBytes <= 0 {
		return 0
	}
	return time.Duration(ss.avgBytes / ss.bps * float64(time.Second))
}

// Stats snapshots the registry counters plus each open stream's measured
// drain rate.
func (r *Registry) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := Stats{
		Open:       len(r.streams),
		Opened:     r.opened,
		Pushed:     r.pushed,
		Backfilled: r.backfilled,
		Dropped:    r.dropped,
		Heartbeats: r.heartbeats,
		Consumed:   r.consumed,
		Bytes:      r.bytes,
	}
	if len(r.streams) > 0 {
		st.DrainRates = make(map[string]float64, len(r.streams))
		for session := range r.streams {
			var bps float64
			if ss := r.sessions[session]; ss != nil {
				bps = ss.bps
			}
			st.DrainRates[session] = bps
		}
	}
	return st
}
