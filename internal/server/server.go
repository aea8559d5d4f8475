// Package server exposes the ForeCache middleware over HTTP: the tile API
// the client-side visualizer talks to (Figure 5's front-end boundary).
// Each browser session gets its own prediction engine, history and cache,
// keyed by a session identifier.
//
// A session is one object: its engine plus its own handles on the
// deployment's prefetch queue and push state. Session state is bounded: an
// LRU cap and an idle TTL evict stale sessions, and eviction closes the
// session's handles — only its own, never a newer session's reusing the
// id. When the deployment routes prefetching through a shared prefetch
// pipeline, the server surfaces its stats; Config.Metrics additionally
// exposes the full
// scheduling loop (counters, queue saturation and depths, cache hit rates,
// the learned utility curve, the scheduler's per-shard series) as
// Prometheus text under GET /metrics.
package server

import (
	"container/list"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"

	"forecache/internal/cache"
	"forecache/internal/core"
	"forecache/internal/obs"
	"forecache/internal/persist"
	"forecache/internal/prefetch"
	"forecache/internal/push"
	"forecache/internal/tile"
)

// ErrClosed is returned for requests that need an engine after Close.
var ErrClosed = errors.New("server: closed")

// Meta describes the served dataset to clients.
type Meta struct {
	Levels   int      `json:"levels"`
	TileSize int      `json:"tileSize"`
	Attrs    []string `json:"attrs"`
}

// EngineFactory builds a fresh prediction engine for a new session around
// q, its core.Config.Scheduler: the session's handle on the deployment's
// scheduler (the server closes it when the session ends), or an untyped
// nil without one.
type EngineFactory func(q core.Submitter) (*core.Engine, error)

// Config wires a Server to the rest of the deployment. Every field's zero
// value means "off" or "none": the zero Config is an unbounded, pull-only,
// untraced server that marshals JSON per request.
type Config struct {
	// MaxSessions caps live sessions: when a new session would exceed it,
	// the least recently used session is evicted. 0 or less means
	// unlimited.
	MaxSessions int
	// SessionTTL evicts sessions idle for longer than this (checked lazily
	// on access). 0 or less disables expiry.
	SessionTTL time.Duration
	// Scheduler is the deployment's shared prefetch pipeline: each session
	// gets its own handle on it (Scheduler.Open), closed at eviction; its
	// stats appear under /stats, and Close shuts it down.
	Scheduler *prefetch.Scheduler
	// Allocation is the deployment's shared feedback-driven allocation
	// policy; its learned per-(phase, model) budget shares appear under
	// /stats ("allocation") and /metrics (forecache_allocation_share).
	Allocation *core.AdaptivePolicy
	// Push is the deployment's push-stream registry and mounts GET /stream:
	// one long-lived response per session carrying framed prefetched tiles
	// (internal/push wire formats), heartbeats while idle, and teardown on
	// session eviction and Close. Each session's push handle
	// (Registry.Open) is also the push sink of its scheduler handle, so the
	// scheduler produces the frames this endpoint drains.
	Push *push.Registry
	// Encoded is the deployment-wide encoded-payload cache and turns on
	// /tile content negotiation: "Accept: application/x-forecache-tile"
	// selects the binary codec, "Accept-Encoding: gzip" compresses the
	// payload with pooled writers, and every encoding is memoized per
	// (coord, format, compression) — an immutable tile is encoded once and
	// served N times as cached bytes. Without it /tile marshals JSON per
	// request.
	Encoded *tile.EncodedCache
	// Obs is the deployment's observability pipeline: every /tile request
	// gets a trace (id returned as X-Trace-ID, span breakdown retained in
	// the pipeline's ring buffer, request latency fed to the outcome-split
	// histogram), /metrics additionally exports the latency histogram
	// families, and GET /debug/traces serves the slowest retained traces.
	Obs *obs.Pipeline
	// Persist is the deployment's snapshot store: Close writes one final
	// snapshot after the scheduler stops (so a graceful shutdown never loses
	// learned state to the interval ticker's timing), and the store's status
	// — restore results per family, snapshot age, last result, bytes written
	// — appears under /stats ("snapshot") and /metrics (forecache_snapshot_*).
	Persist *persist.Store
	// Metrics registers a dependency-free Prometheus text-format GET
	// /metrics endpoint exposing server, cache and prefetch-pipeline
	// telemetry (including queue saturation and depths, the scheduler's
	// per-shard series, the learned utility curve and the adaptive
	// allocation shares when the deployment has them).
	Metrics bool
}

// session is one live session: its engine, its handles on the prefetch
// queue and push state, and its eviction bookkeeping.
type session struct {
	id       string
	eng      *core.Engine
	q        *prefetch.Session // nil without a scheduler
	push     *push.Session     // nil without a push registry
	el       *list.Element     // position in the recency list
	lastSeen time.Time
}

// openSession opens a new session's handles — its push handle is its
// queue's push sink — and returns its queue as the engine's Submitter,
// an untyped nil (never a typed-nil pointer) without a scheduler.
func (s *Server) openSession(id string) (*session, core.Submitter) {
	sess := &session{id: id}
	var sink prefetch.PushSink
	var q core.Submitter
	if s.cfg.Push != nil {
		sess.push = s.cfg.Push.Open(id)
		sink = sess.push
	}
	if s.cfg.Scheduler != nil {
		sess.q = s.cfg.Scheduler.Open(id, sink)
		q = sess.q
	}
	return sess, q
}

// close ends the session's handles: its queued prefetches are cancelled
// (a request still running on its engine is served, but its submits are
// refused) and its push stream is torn down.
func (sess *session) close() {
	if sess.q != nil {
		sess.q.Close()
	}
	if sess.push != nil {
		sess.push.Close()
	}
}

// Server is the HTTP middleware front door: one session table behind one
// mutex. Create with New, then mount it as an http.Handler.
type Server struct {
	meta    Meta
	factory EngineFactory
	cfg     Config
	mux     *http.ServeMux
	now     func() time.Time // test hook
	start   time.Time        // construction time, for /stats uptime
	// epoch names this process's immutable tiles in every ETag and in
	// /stream's X-Tile-Epoch: another process's tags never match.
	epoch string

	mu       sync.Mutex
	sessions map[string]*session
	recency  *list.List // of *session, front = most recently used
	evicted  int
	// retired accumulates the cache counters of sessions that left the
	// table (eviction or Close), so the /metrics cache counters are
	// monotone over the server's lifetime — a Prometheus counter must
	// never decrease just because a session aged out.
	retired  cache.Stats
	closed   bool // set by Close; later tile requests get ErrClosed
	teardown sync.Once
}

// New builds a server for a pyramid-backed middleware.
func New(meta Meta, factory EngineFactory, cfg Config) *Server {
	var epoch [8]byte
	_, _ = rand.Read(epoch[:]) // never fails since Go 1.24
	s := &Server{
		meta:     meta,
		factory:  factory,
		cfg:      cfg,
		mux:      http.NewServeMux(),
		now:      time.Now,
		epoch:    hex.EncodeToString(epoch[:]),
		sessions: make(map[string]*session),
		recency:  list.New(),
	}
	s.start = s.now()
	s.mux.HandleFunc("GET /meta", s.handleMeta)
	s.mux.HandleFunc("GET /tile", s.handleTile)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("POST /reset", s.handleReset)
	if cfg.Push != nil {
		s.mux.HandleFunc("GET /stream", s.handleStream)
	}
	if cfg.Metrics {
		s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	}
	if cfg.Obs != nil {
		s.mux.HandleFunc("GET /debug/traces", s.handleTraces)
	}
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close releases server resources. It is safe to call concurrently with
// in-flight requests and with itself: the teardown runs once, concurrent
// callers return only when it is done, later calls are no-ops. Every
// session is closed and the table emptied under its lock (later tile
// requests get ErrClosed / 503 and /stats keeps answering with server-wide
// telemetry), the shared scheduler, if any, is shut down after cancelling
// all queued prefetches, and finally the snapshot store, if any, writes the
// deployment's learned state to disk one last time — after the scheduler
// stops, so the snapshot sees the last outcomes the worker pool delivered.
func (s *Server) Close() {
	s.teardown.Do(func() {
		s.mu.Lock()
		s.closed = true
		for _, sess := range s.sessions {
			s.retireStatsLocked(sess)
			sess.close()
		}
		clear(s.sessions)
		s.recency.Init()
		s.mu.Unlock()
		if s.cfg.Push != nil {
			// Signal every remaining stream handler to return. Close only
			// closes done channels — it never waits on a handler mid-write,
			// so it cannot deadlock against a stalled stream.
			s.cfg.Push.Close()
		}
		if s.cfg.Scheduler != nil {
			s.cfg.Scheduler.Close()
		}
		if s.cfg.Persist != nil {
			s.cfg.Persist.Close()
		}
	})
}

// sessionID extracts the session id from a request's parsed query; it
// defaults to "default" so single-user tools need no bookkeeping.
func sessionID(q url.Values) string {
	if id := q.Get("session"); id != "" {
		return id
	}
	return "default"
}

// sessionError answers a request whose engine could not be had: 503 once
// the server is closed, 500 for a failed factory run.
func sessionError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	if errors.Is(err, ErrClosed) {
		status = http.StatusServiceUnavailable
	}
	httpError(w, status, err)
}

// session returns (creating on demand) session id. Expired and over-cap
// sessions are evicted here, on access.
func (s *Server) session(id string) (*session, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	now := s.now()
	s.expireIdleLocked(now)
	if sess, ok := s.sessions[id]; ok {
		sess.lastSeen = now
		s.recency.MoveToFront(sess.el)
		s.mu.Unlock()
		return sess, nil
	}
	s.mu.Unlock()

	// Open the new session's handles, then build the engine outside the
	// lock: assembling one can mean training models, and stalling every
	// other session on it would serialize the server.
	sess, q := s.openSession(id)
	eng, err := s.factory(q)
	if err != nil {
		sess.close()
		return nil, err
	}
	sess.eng = eng

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		// Close won the race while the engine was being built.
		sess.close()
		return nil, ErrClosed
	}
	if cur, ok := s.sessions[id]; ok {
		// A concurrent request created this session first: use it, and
		// close our handles (nothing was submitted through them).
		sess.close()
		cur.lastSeen = s.now()
		s.recency.MoveToFront(cur.el)
		return cur, nil
	}
	sess.lastSeen = s.now()
	sess.el = s.recency.PushFront(sess)
	s.sessions[id] = sess
	for s.cfg.MaxSessions > 0 && len(s.sessions) > s.cfg.MaxSessions {
		s.evictLocked(s.recency.Back().Value.(*session))
	}
	return sess, nil
}

// peekSession returns id's existing engine without creating one —
// read-only endpoints (/stats) and idempotent ones (/reset) must not spend
// a factory run, and at the session cap must not evict a live analyst's
// session, just because a probe named an unknown id.
func (s *Server) peekSession(id string) (*core.Engine, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.sessions[id]
	if !ok {
		return nil, false
	}
	return sess.eng, true
}

// expireIdleLocked evicts every session idle past the TTL.
func (s *Server) expireIdleLocked(now time.Time) {
	if s.cfg.SessionTTL <= 0 {
		return
	}
	for s.recency.Len() > 0 {
		oldest := s.recency.Back().Value.(*session)
		if now.Sub(oldest.lastSeen) <= s.cfg.SessionTTL {
			break
		}
		s.evictLocked(oldest)
	}
}

// evictLocked unlinks a session from the table and closes it. Closing
// takes only the scheduler shard's and the push registry's locks, never
// the engine's, so a request running on the engine cannot stall the table.
func (s *Server) evictLocked(sess *session) {
	s.recency.Remove(sess.el)
	delete(s.sessions, sess.id)
	s.evicted++
	s.retireStatsLocked(sess)
	sess.close()
}

// retireStatsLocked folds a departing session's cache counters into the
// server's lifetime totals. Reading the engine's cache stats under mu is
// safe: the cache mutex is a leaf lock, never held while acquiring mu.
func (s *Server) retireStatsLocked(sess *session) {
	s.retired.Add(sess.eng.LifetimeCacheStats())
}

// tierStats is one read of the session table under one hold of its lock.
type tierStats struct {
	sessions, evicted int
	closed            bool
	// cache is the lifetime cache counters of every session ever, departed
	// (the retired baseline) and live; zero unless asked for.
	cache cache.Stats
}

// gather takes the table's snapshot. The cache aggregate costs one cache
// lock per live engine, so only callers that render it (withCache) pay for
// it. Each engine is read under mu, as evictLocked retires it: read
// outside, a session evicted in between had its later prefetches counted
// by this scrape and not by the next, and the total went backwards.
func (s *Server) gather(withCache bool) tierStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := tierStats{sessions: len(s.sessions), evicted: s.evicted, closed: s.closed}
	if withCache {
		t.cache.Add(s.retired)
		for _, sess := range s.sessions {
			t.cache.Add(sess.eng.LifetimeCacheStats())
		}
	}
	return t
}

func (s *Server) handleMeta(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.meta)
}

func (s *Server) handleTile(w http.ResponseWriter, r *http.Request) {
	// Trace the whole request (no-ops when untraced). A request refused on
	// any early-out below finishes without an outcome and is recorded as
	// shed; the engine sets hit/miss and the stage spans.
	q := r.URL.Query()
	id := sessionID(q)
	rt := s.cfg.Obs.StartTrace(id, r.URL.RawQuery)
	defer rt.Finish()
	if traceID := rt.ID(); traceID != "" {
		w.Header().Set("X-Trace-ID", traceID)
	}
	// The coordinate is validated before the session is resolved: a
	// malformed request must not spend a factory run or, at the session
	// cap, evict a live analyst's session just to be answered 400.
	c, err := coordFromQuery(q)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	endSession := rt.StartSpan("session")
	sess, err := s.session(id)
	endSession()
	if err != nil {
		sessionError(w, err)
		return
	}
	resp, err := sess.eng.RequestTraced(c, rt)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if sess.push != nil {
		// Close the push-to-consume loop: if this tile was framed onto the
		// session's stream, its lead time (push to request) is observed now.
		sess.push.Consumed(c)
	}
	if resp.Hit {
		w.Header().Set("X-Cache", "HIT")
	} else {
		w.Header().Set("X-Cache", "MISS")
	}
	w.Header().Set("X-Phase", resp.Phase.String())
	w.Header().Set("X-Latency-Ms",
		strconv.FormatFloat(float64(resp.Latency)/float64(time.Millisecond), 'f', 3, 64))
	tag := s.tileTag(c)
	w.Header().Set("Etag", tag) // the canonical spelling, which Set need not rewrite
	if s.cfg.Encoded != nil {
		w.Header().Add("Vary", "Accept")
		w.Header().Add("Vary", "Accept-Encoding")
	}
	endWrite := rt.StartSpan("write")
	if listsTag(r.Header.Get("If-None-Match"), tag) {
		// The client holds this tile (pushed to it, or pulled earlier from
		// this process): revalidate it, do not send it again.
		w.WriteHeader(http.StatusNotModified)
	} else {
		s.writeTile(w, r, c, resp.Tile)
	}
	endWrite()
}

// tileTag is the weak ETag of c's tile: W/"<epoch>.<level>.<y>.<x>". It is
// weak because it names the tile, not one of its encodings.
func (s *Server) tileTag(c tile.Coord) string {
	return `W/"` + s.epoch + "." + strconv.Itoa(c.Level) + "." + strconv.Itoa(c.Y) + "." + strconv.Itoa(c.X) + `"`
}

// listsTag reports whether an If-None-Match value lists tag, by weak
// comparison (RFC 9110 §8.8.3.2). A malformed member or "*" lists nothing:
// a tag names one tile the client holds, and a wildcard names none.
func listsTag(ifNoneMatch, tag string) bool {
	tag = strings.TrimPrefix(tag, "W/")
	for ifNoneMatch != "" {
		var member string
		member, ifNoneMatch, _ = strings.Cut(ifNoneMatch, ",")
		if strings.TrimPrefix(strings.TrimSpace(member), "W/") == tag {
			return true
		}
	}
	return false
}

// StatsResponse is the /stats payload: the session's cache counters (when
// the session exists) plus server-wide session and prefetch-pipeline
// telemetry — including the scheduler's global queue saturation
// (pressure), per-session queue depths (Scheduler.QueueDepths) and, for
// deployments with adaptive allocation, the learned per-(phase, model)
// budget shares. Asking for an unknown session returns the
// server-wide fields only — it does not create a session.
type StatsResponse struct {
	Cache     *cache.Stats    `json:"cache,omitempty"`
	Sessions  int             `json:"sessions"`
	Evicted   int             `json:"evicted"`
	Closed    bool            `json:"closed,omitempty"`
	Pressure  float64         `json:"pressure"`
	Scheduler *prefetch.Stats `json:"scheduler,omitempty"`
	// Push reports the push-delivery registry (open streams, pushed and
	// consumed frames, per-session drain rates). Absent on pull-only
	// deployments.
	Push *push.Stats `json:"push,omitempty"`
	// Allocation maps phase name -> model -> current smoothed budget share
	// of the deployment's shared AdaptivePolicy.
	Allocation map[string]map[string]float64 `json:"allocation,omitempty"`
	// Snapshot reports the learned-state snapshot store: per-family restore
	// results ("restored" vs "cold"), save counters and the age of the last
	// snapshot. Absent when the deployment persists nothing.
	Snapshot *persist.Status `json:"snapshot,omitempty"`
	// Uptime is seconds since the server was constructed; with GoVersion
	// and Build it lets fleet dashboards tell deployments (and deploys)
	// apart.
	Uptime    float64 `json:"uptime_seconds"`
	GoVersion string  `json:"go_version"`
	// Build carries the main module path/version and VCS stamp from
	// runtime/debug.ReadBuildInfo (absent in non-module test binaries).
	Build map[string]string `json:"build,omitempty"`
}

// buildInfoMap extracts the identifying subset of the binary's build info
// once; ReadBuildInfo walks the whole embedded blob, not worth repeating
// per /stats probe.
var buildInfoMap = sync.OnceValue(func() map[string]string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return nil
	}
	out := map[string]string{"path": bi.Path}
	if bi.Main.Version != "" {
		out["version"] = bi.Main.Version
	}
	for _, set := range bi.Settings {
		switch set.Key {
		case "vcs.revision", "vcs.time", "vcs.modified", "GOOS", "GOARCH":
			out[set.Key] = set.Value
		}
	}
	return out
})

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	// The session table's snapshot, then the scheduler counters under the
	// pipeline's own snapshot discipline. /stats stays answerable during and
	// after Close — it reports the torn-down state instead of racing it.
	tier := s.gather(false)
	out := StatsResponse{
		Sessions:  tier.sessions,
		Evicted:   tier.evicted,
		Closed:    tier.closed,
		Uptime:    max(0, s.now().Sub(s.start).Seconds()),
		GoVersion: runtime.Version(),
		Build:     buildInfoMap(),
	}
	if eng, ok := s.peekSession(sessionID(r.URL.Query())); ok {
		cs := eng.CacheStats()
		out.Cache = &cs
	}
	if s.cfg.Scheduler != nil {
		st := s.cfg.Scheduler.Stats()
		out.Scheduler = &st
		out.Pressure = st.Pressure
	}
	if s.cfg.Push != nil {
		st := s.cfg.Push.Stats()
		out.Push = &st
	}
	if s.cfg.Allocation != nil {
		shares := s.cfg.Allocation.Shares()
		out.Allocation = make(map[string]map[string]float64, len(shares))
		for ph, byModel := range shares {
			out.Allocation[ph.String()] = byModel
		}
	}
	if s.cfg.Persist != nil {
		st := s.cfg.Persist.Status()
		out.Snapshot = &st
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleReset(w http.ResponseWriter, r *http.Request) {
	// Resetting a session that does not exist is a no-op, not a reason to
	// build an engine.
	if eng, ok := s.peekSession(sessionID(r.URL.Query())); ok {
		eng.Reset()
	}
	w.WriteHeader(http.StatusNoContent)
}

// coordFromQuery parses a tile coordinate from ?level=&y=&x=. It takes the
// parsed query values (rather than the request) so the fuzz suite can drive
// it with arbitrary inputs.
func coordFromQuery(q url.Values) (tile.Coord, error) {
	var c tile.Coord
	for _, f := range []struct {
		name string
		dst  *int
	}{{"level", &c.Level}, {"y", &c.Y}, {"x", &c.X}} {
		raw := q.Get(f.name)
		if raw == "" {
			return c, fmt.Errorf("missing query parameter %q", f.name)
		}
		v, err := strconv.Atoi(raw)
		if err != nil {
			return c, fmt.Errorf("bad %s: %w", f.name, err)
		}
		*f.dst = v
	}
	return c, nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
