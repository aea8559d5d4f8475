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
	// SlotCap is a client's slot-buffer capacity (client.DefaultSlotCap): a
	// FIFO that cannot have evicted a tile framed fewer than SlotCap frames ago.
	SlotCap = 64
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
	// Obs, when set, receives push-to-consume lead times (the carrying
	// frame enqueued to the tile's request arriving). Nil is a no-op.
	Obs *obs.Pipeline
	// Encoded is ignored: the registry enqueues tiles unencoded, and the
	// stream handler that writes a frame takes its body from the
	// deployment's encoded cache. Kept so existing callers compile.
	Encoded *tile.EncodedCache
	// now overrides time.Now (test seam).
	now func() time.Time
}

// Stats snapshots registry activity since construction.
type Stats struct {
	// Open is the number of streams attached right now.
	Open int `json:"open"`
	// Opened counts stream attachments ever (reconnects included).
	Opened int `json:"opened"`
	// Pushed counts tile frames enqueued to streams (backfill included); a
	// skipped re-push of a tile the client still holds is none.
	Pushed int `json:"pushed"`
	// Backfilled counts the subset of Pushed replayed from the server-side
	// cache on re-attach.
	Backfilled int `json:"backfilled"`
	// Dropped counts tile frames lost to a full stream buffer. A frame
	// for a session with no stream, or for a superseded, released or
	// closed one, is refused uncounted: its tile is cached either way and
	// reaches a re-attached stream as backfill.
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

// Session is one session's push state (Registry.Open) and its
// prefetch.PushSink: the attached stream, if any, and the accounting that
// survives a reconnect — the measured drain rate (the scheduler's
// bandwidth term) and the pushed-coordinate tracker (the lead-time
// metric). Safe for concurrent use.
type Session struct {
	reg *Registry
	id  string

	// The rest is guarded by reg.mu.
	stream   *Stream // the attached stream, nil when none
	closed   bool
	bps      float64                  // EWMA drained bytes per second
	avgBytes float64                  // EWMA frame size in bytes
	pushedAt map[tile.Coord]pushStamp // unconsumed pushes by coordinate
	order    []pushRef                // the last pushedAtCap pushes, oldest first
}

// pushStamp is a coordinate's latest push: when it was enqueued, n, the
// registry's push count then, and the id and Seq of the stream that carried
// it (an id, so a stamp never keeps an ended stream's buffer alive).
type pushStamp struct {
	at     time.Time
	n      int
	stream int
	seq    uint64
}

// pushRef names one push in the order: its coordinate and push count n,
// which tell it apart from a later push of the same coordinate.
type pushRef struct {
	c tile.Coord
	n int
}

// Stream is one attached session stream: a bounded frame buffer the
// scheduler pushes into and the server's stream handler drains, plus a
// done channel closed when the stream stops being its session's current
// one: superseded, released, its session closed, or the registry closed.
type Stream struct {
	sess   *Session
	frames chan Frame
	done   chan struct{}
	id     int    // the registry's attach count at its attach
	seq    uint64 // tile frames enqueued; guarded by reg.mu
}

// Frames is the buffered frame channel the stream handler drains.
func (st *Stream) Frames() <-chan Frame { return st.frames }

// Done is closed when the stream must end: superseded by a re-attach,
// session closed, or registry closed.
func (st *Stream) Done() <-chan struct{} { return st.done }

// Registry is the deployment's push state: the server opens one Session
// per session and writes its frames, the prefetch scheduler pushes through
// it. Safe for concurrent use.
type Registry struct {
	cfg Config

	mu       sync.Mutex
	sessions map[*Session]struct{} // every open handle
	byID     map[string]*Session   // each id's latest, for the string adapters
	closed   bool

	opened, pushed, backfilled, dropped, heartbeats, consumed int
	bytes                                                     int64
}

// NewRegistry builds a stream registry.
func NewRegistry(cfg Config) *Registry {
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = DefaultHeartbeat
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	return &Registry{
		cfg:      cfg,
		sessions: make(map[*Session]struct{}),
		byID:     make(map[string]*Session),
	}
}

// HeartbeatInterval returns the configured idle-stream heartbeat cadence.
func (r *Registry) HeartbeatInterval() time.Duration { return r.cfg.Heartbeat }

// Open returns a new handle on session id's push state, which becomes
// id's latest for the string adapters; closed if the registry is.
func (r *Registry) Open(id string) *Session {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.openLocked(id)
}

func (r *Registry) openLocked(id string) *Session {
	ss := &Session{reg: r, id: id, closed: r.closed}
	r.sessions[ss] = struct{}{}
	r.byID[id] = ss
	return ss
}

// Attach attaches a stream to session's latest handle, opening one on
// first use; see Session.Attach.
func (r *Registry) Attach(session string) *Stream {
	r.mu.Lock()
	ss := r.byID[session]
	if ss == nil {
		ss = r.openLocked(session)
	}
	r.mu.Unlock()
	return ss.Attach()
}

// Attach registers a stream for the session, closing any it already has:
// the newest connection wins, which makes reconnects safe. The stream's
// frames carry tiles unencoded, whatever the framing: the handler that
// writes a frame encodes it. Returns nil once the session or the registry
// is closed.
func (ss *Session) Attach() *Stream {
	r := ss.reg
	r.mu.Lock()
	defer r.mu.Unlock()
	if ss.closed {
		return nil
	}
	if ss.stream != nil {
		close(ss.stream.done)
	}
	r.opened++
	ss.stream = &Stream{
		sess:   ss,
		frames: make(chan Frame, streamBuffer),
		done:   make(chan struct{}),
		id:     r.opened,
	}
	return ss.stream
}

// Close ends the session's stream and forgets its push state (session
// eviction); later Attaches return nil and later pushes are refused. Only
// this handle is touched, never a newer one with the same id. Idempotent.
func (ss *Session) Close() {
	r := ss.reg
	r.mu.Lock()
	defer r.mu.Unlock()
	ss.endLocked()
	delete(r.sessions, ss)
	if r.byID[ss.id] == ss {
		delete(r.byID, ss.id)
	}
}

// endLocked closes ss and its stream and drops its accounting.
func (ss *Session) endLocked() {
	ss.closed = true
	if ss.stream != nil {
		close(ss.stream.done)
		ss.stream = nil
	}
	ss.pushedAt, ss.order = nil, nil
}

// Release ends st if it is still its session's current stream — the
// client-dropped path. Unlike Close it keeps the session's drain-rate and
// lead-time state, so a reconnect resumes with a warm bandwidth estimate.
func (r *Registry) Release(st *Stream) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if st.sess.stream == st { // any other stream is closed already
		close(st.done)
		st.sess.stream = nil
	}
}

// Close ends every stream and refuses further attaches and pushes.
// Idempotent; it only signals — it never waits on a stream writer, so a
// Server.Close racing a mid-write handler cannot deadlock here.
func (r *Registry) Close() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.closed = true
	for ss := range r.sessions {
		ss.endLocked()
	}
	clear(r.sessions)
	clear(r.byID)
}

// Push pushes to session's latest handle (false without one); see
// Session.Push.
func (r *Registry) Push(session, model string, c tile.Coord, score float64, t *tile.Tile) bool {
	r.mu.Lock()
	ss := r.byID[session]
	r.mu.Unlock()
	return ss != nil && ss.Push(model, c, score, t)
}

// Push enqueues one freshly fetched tile onto the session's stream unless
// its client still holds it, reporting whether the stream has it (false: no
// stream attached, buffer full, or session closed). It never blocks — a
// slow consumer loses frames, not the worker pool — and never encodes.
func (ss *Session) Push(model string, c tile.Coord, score float64, t *tile.Tile) bool {
	ss.reg.mu.Lock()
	st := ss.stream
	ss.reg.mu.Unlock()
	return st != nil && ss.reg.enqueue(st, Frame{Type: FrameTile, Model: model, Score: score, Coord: c, Tile: t})
}

// Backfill enqueues one cached tile onto st after a re-attach, so the
// client's slot buffer recovers what the dropped stream already carried
// without re-fetching (and without touching cache outcome accounting —
// the caller reads the cache through a side-effect-free snapshot). A tile
// cached in several model regions is framed once, as any re-push is.
func (r *Registry) Backfill(st *Stream, model string, c tile.Coord, t *tile.Tile) bool {
	return r.enqueue(st, Frame{Type: FrameTile, Model: model, Coord: c, Tile: t, Backfill: true})
}

// enqueue puts f on st unless st was superseded or released meanwhile (the
// tile, already cached, reaches the replacing stream as backfill), or
// reports true at once if st carried it fewer than SlotCap frames ago and
// it is unconsumed since: the client's slot buffer still holds it.
func (r *Registry) enqueue(st *Stream, f Frame) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	ss := st.sess
	if ss.stream != st {
		return false
	}
	if p, ok := ss.pushedAt[f.Coord]; ok && p.stream == st.id && st.seq-p.seq < SlotCap {
		return true
	}
	f.Seq, f.Session = st.seq+1, ss.id
	select {
	case st.frames <- f:
		st.seq = f.Seq
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
	if len(ss.order) == pushedAtCap {
		if v := ss.order[0]; ss.pushedAt[v.c].n == v.n {
			delete(ss.pushedAt, v.c)
		}
		ss.order = ss.order[1:]
	}
	ss.order = append(ss.order, pushRef{c: f.Coord, n: r.pushed})
	if ss.pushedAt == nil {
		ss.pushedAt = make(map[tile.Coord]pushStamp)
	}
	ss.pushedAt[f.Coord] = pushStamp{at: r.cfg.now(), n: r.pushed, stream: st.id, seq: f.Seq}
	return true
}

// Consumed records that the session requested coordinate c: if c was
// pushed down its stream and not yet consumed, the push-to-consume lead
// time is observed and true is returned. The server calls this on every
// /tile request of a push-enabled deployment.
func (ss *Session) Consumed(c tile.Coord) (time.Duration, bool) {
	r := ss.reg
	r.mu.Lock()
	stamp, ok := ss.pushedAt[c]
	if !ok {
		r.mu.Unlock()
		return 0, false
	}
	delete(ss.pushedAt, c)
	r.consumed++
	lead := r.cfg.now().Sub(stamp.at)
	obsPipe := r.cfg.Obs
	r.mu.Unlock()
	obsPipe.ObservePushLead(lead)
	return lead, true
}

// RecordWrite feeds one stream write into the session's drain-rate EWMA:
// n bytes flushed to the connection in elapsed wall time. The handler
// calls it after every frame write; the scheduler's bandwidth-aware
// admission term reads the resulting rate through DrainDelay.
func (ss *Session) RecordWrite(n int, elapsed time.Duration) {
	if n <= 0 || elapsed <= 0 {
		return
	}
	rate := float64(n) / elapsed.Seconds()
	ss.reg.mu.Lock()
	defer ss.reg.mu.Unlock()
	if !ss.closed {
		ss.bps, ss.avgBytes = ewma(ss.bps, rate), ewma(ss.avgBytes, float64(n))
	}
}

// ewma folds sample into avg with weight drainAlpha; the first sample
// seeds it.
func ewma(avg, sample float64) float64 {
	if avg == 0 {
		return sample
	}
	return drainAlpha*sample + (1-drainAlpha)*avg
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

// DrainDelay estimates how long the session's connection takes to deliver
// one more tile frame: the EWMA frame size over the measured drain rate.
// It returns 0 without an attached stream or without a measured rate yet —
// the scheduler's admission term then adds nothing, exactly the pull-path
// behavior. This is prefetch.PushSink's bandwidth hook.
func (ss *Session) DrainDelay() time.Duration {
	ss.reg.mu.Lock()
	defer ss.reg.mu.Unlock()
	if ss.stream == nil || ss.bps <= 0 || ss.avgBytes <= 0 {
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
		Opened:     r.opened,
		Pushed:     r.pushed,
		Backfilled: r.backfilled,
		Dropped:    r.dropped,
		Heartbeats: r.heartbeats,
		Consumed:   r.consumed,
		Bytes:      r.bytes,
		DrainRates: make(map[string]float64),
	}
	for ss := range r.sessions {
		if ss.stream != nil {
			st.Open++
			st.DrainRates[ss.id] = ss.bps
		}
	}
	return st
}
