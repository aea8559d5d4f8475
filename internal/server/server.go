// Package server exposes the ForeCache middleware over HTTP: the tile API
// the client-side visualizer talks to (Figure 5's front-end boundary).
// Each browser session gets its own prediction engine, history and cache,
// keyed by a session identifier.
//
// The session tier is sharded: session state (the engine table, the
// LRU/TTL recency list, the retired-stats baseline) lives in N
// independent shards, each behind its own mutex, and a hash router
// keyed on session id routes every request to its session's home
// shard. The Server itself is a thin router — it owns only the immutable
// config, the mux and the ring — so one shard's TTL sweep or table scan
// never blocks requests routed to another shard. The default is one
// shard.
//
// Session state is bounded: an LRU cap and an idle TTL evict stale
// sessions so long-running deployments don't leak one engine per session
// id forever. When the deployment routes prefetching through a shared
// prefetch pipeline, the server surfaces its stats and cancels an evicted
// session's queued fetches; Config.Metrics additionally exposes the full
// scheduling loop (counters, per-session backpressure, cache hit rates,
// the learned utility curve, per-shard series) as Prometheus text under
// GET /metrics.
package server

import (
	"container/list"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"net/url"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"forecache/internal/cache"
	"forecache/internal/core"
	"forecache/internal/obs"
	"forecache/internal/persist"
	"forecache/internal/prefetch"
	"forecache/internal/push"
	"forecache/internal/shard"
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

// EngineFactory builds a fresh prediction engine for a new session. The
// session id lets the factory register the engine with a shared prefetch
// scheduler.
type EngineFactory func(session string) (*core.Engine, error)

// Config wires a Server to the rest of the deployment. Every field's zero
// value means "off" or "none": the zero Config is a one-shard, unbounded,
// pull-only, untraced server that marshals JSON per request.
type Config struct {
	// Shards splits the session tier into that many independent shards
	// behind a hash router keyed on session id: each shard owns its own
	// session table, recency list, TTL sweep and retired-stats baseline
	// under its own mutex, so session churn in one shard never contends with
	// requests routed to another. Below 1 means one shard.
	Shards int
	// MaxSessions caps live sessions across the whole server; with multiple
	// shards each shard caps at ceil(MaxSessions / Shards), so the fleet
	// total never exceeds the cap by more than the rounding slack. The least
	// recently used session of the arriving session's shard is evicted when
	// the shard would exceed its cap. 0 or less means unlimited.
	MaxSessions int
	// SessionTTL evicts sessions idle for longer than this (checked lazily
	// on access, per shard). 0 or less disables expiry.
	SessionTTL time.Duration
	// Scheduler is the deployment's shared prefetch pipeline: its stats
	// appear under /stats, evicted sessions' queued fetches are cancelled,
	// and Close shuts it down.
	Scheduler *prefetch.Scheduler
	// Allocation is the deployment's shared feedback-driven allocation
	// policy; its learned per-(phase, model) budget shares appear under
	// /stats ("allocation") and /metrics (forecache_allocation_share).
	Allocation *core.AdaptivePolicy
	// Push is the deployment's push-stream registry and mounts GET /stream:
	// one long-lived response per session carrying framed prefetched tiles
	// (internal/push wire formats), heartbeats while idle, and teardown on
	// session eviction and Close. The same registry must be handed to the
	// prefetch pipeline (prefetch.Config.Push) — the scheduler produces the
	// frames this endpoint drains.
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
	// families, and — when the pipeline keeps a trace buffer — GET
	// /debug/traces serves the slowest retained traces.
	Obs *obs.Pipeline
	// Persist is the deployment's snapshot store: Close writes one final
	// snapshot after the scheduler stops (so a graceful shutdown never loses
	// learned state to the interval ticker's timing), and the store's status
	// — restore results per family, snapshot age, last result, bytes written
	// — appears under /stats ("snapshot") and /metrics (forecache_snapshot_*).
	Persist *persist.Store
	// Metrics registers a dependency-free Prometheus text-format GET
	// /metrics endpoint exposing server, cache and prefetch-pipeline
	// telemetry (including per-session backpressure, per-shard session and
	// scheduler series, the learned utility curve and the adaptive
	// allocation shares when the deployment has them).
	Metrics bool
	// Pprof mounts net/http/pprof's profiling handlers under /debug/pprof/
	// (opt-in: profiling endpoints expose internals and cost CPU, so they
	// are off unless a deployment asks).
	Pprof bool
}

// session is one live engine plus its eviction bookkeeping.
type session struct {
	id       string
	eng      *core.Engine
	el       *list.Element // position in the recency list
	lastSeen time.Time
}

// sessionShard is one independent slice of the session tier: a session
// table, its recency list and the eviction/retired-stats bookkeeping, all
// behind one shard-local mutex. Every mutable per-session field lives
// here; the Server above it holds only immutable routing state.
type sessionShard struct {
	srv *Server // immutable config back-pointer (ttl, caps, clock, sched)

	mu       sync.Mutex
	sessions map[string]*session
	recency  *list.List // of *session, front = most recently used
	evicted  int
	// retired accumulates the cache counters of sessions that left the
	// table (eviction or Close), so the /metrics cache counters are
	// monotone over the server's lifetime — a Prometheus counter must
	// never decrease just because a session aged out.
	retired cache.Stats
	closed  bool
}

// Server is the HTTP middleware front door: a thin hash router
// over N session shards. Create with New, then mount via Handler (it
// implements http.Handler). All mutable session state lives in the
// shards; the Server owns only the mux, the ring and immutable config.
type Server struct {
	meta        Meta
	factory     EngineFactory
	cfg         Config
	mux         *http.ServeMux
	now         func() time.Time // test hook
	start       time.Time        // construction time, for /stats uptime
	perShardCap int              // ceil(cfg.MaxSessions / shards); 0 = unlimited
	ring        *shard.Ring
	shards      []*sessionShard // max(cfg.Shards, 1) of them
	closed      atomic.Bool
	teardown    sync.Once
}

// New builds a server for a pyramid-backed middleware.
func New(meta Meta, factory EngineFactory, cfg Config) *Server {
	s := &Server{
		meta:    meta,
		factory: factory,
		cfg:     cfg,
		mux:     http.NewServeMux(),
		now:     time.Now,
		shards:  make([]*sessionShard, max(cfg.Shards, 1)),
	}
	if cfg.MaxSessions > 0 {
		s.perShardCap = (cfg.MaxSessions + len(s.shards) - 1) / len(s.shards)
	}
	s.ring = shard.NewRing(len(s.shards))
	for i := range s.shards {
		s.shards[i] = &sessionShard{srv: s, sessions: make(map[string]*session), recency: list.New()}
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
	if cfg.Obs != nil && cfg.Obs.Traces != nil {
		s.mux.HandleFunc("GET /debug/traces", s.handleTraces)
	}
	if cfg.Pprof {
		// pprof.Index routes named profiles (heap, goroutine, ...) by path
		// suffix, so the subtree pattern covers them all.
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("POST /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// shardFor returns the session id's home shard.
func (s *Server) shardFor(id string) *sessionShard { return s.shards[s.ring.Locate(id)] }

// NumShards returns how many session shards the router fans out over.
func (s *Server) NumShards() int { return len(s.shards) }

// Close releases server resources. It is safe to call concurrently with
// in-flight requests and with itself: the teardown runs once, concurrent
// callers return only when it is done, later calls are no-ops. Each shard's
// session table is torn down under that shard's lock (later tile requests
// get ErrClosed / 503 and /stats keeps answering with server-wide
// telemetry), every engine is detached so pending deliveries are dropped,
// the shared scheduler, if any, is shut down after cancelling all queued
// prefetches, and finally the snapshot store, if any, writes the
// deployment's learned state to disk one last time — after the scheduler
// stops, so the snapshot sees the last outcomes the worker pool delivered.
func (s *Server) Close() {
	s.closed.Store(true)
	s.teardown.Do(func() {
		for _, sh := range s.shards {
			sh.mu.Lock()
			sh.closed = true
			closing := make([]*session, 0, len(sh.sessions))
			for _, sess := range sh.sessions {
				closing = append(closing, sess)
				sh.retireStatsLocked(sess)
			}
			sh.sessions = make(map[string]*session)
			sh.recency.Init()
			sh.mu.Unlock()
			s.releaseSessions(closing)
		}
		if s.cfg.Push != nil {
			// Signal every remaining stream handler to return (sessions created
			// mid-Close may have attached after their shard drained). Close only
			// closes done channels — it never waits on a handler mid-write, so
			// it cannot deadlock against a stalled stream.
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

// session returns (creating on demand) the engine for session id. Expired
// and over-cap sessions of the id's home shard are evicted here, on access
// — a sweep only ever holds its own shard's lock, so it cannot stall
// requests routed to other shards.
func (s *Server) session(id string) (*core.Engine, error) {
	sh := s.shardFor(id)
	sh.mu.Lock()
	if sh.closed {
		sh.mu.Unlock()
		return nil, ErrClosed
	}
	now := s.now()
	evicted := sh.sweepLocked(now)
	if sess, ok := sh.sessions[id]; ok {
		sess.lastSeen = now
		sh.recency.MoveToFront(sess.el)
		sh.mu.Unlock()
		s.releaseSessions(evicted)
		return sess.eng, nil
	}
	sh.mu.Unlock()
	s.releaseSessions(evicted)

	// Build the engine outside the lock: assembling one can mean training
	// models, and stalling every other session on it would serialize the
	// shard.
	eng, err := s.factory(id)
	if err != nil {
		return nil, err
	}

	sh.mu.Lock()
	if sh.closed {
		// Close won the race while the engine was being built: discard it
		// before it can register with the (stopping) scheduler.
		sh.mu.Unlock()
		eng.DetachScheduler()
		return nil, ErrClosed
	}
	if sess, ok := sh.sessions[id]; ok {
		// A concurrent request created this session first; use its engine
		// and discard ours (it never submitted anything to the scheduler).
		sess.lastSeen = s.now()
		sh.recency.MoveToFront(sess.el)
		sh.mu.Unlock()
		eng.DetachScheduler()
		return sess.eng, nil
	}
	sess := &session{id: id, eng: eng, lastSeen: s.now()}
	sess.el = sh.recency.PushFront(sess)
	sh.sessions[id] = sess
	evicted = nil
	for s.perShardCap > 0 && len(sh.sessions) > s.perShardCap {
		evicted = append(evicted, sh.evictLocked(sh.recency.Back().Value.(*session)))
	}
	sh.mu.Unlock()
	s.releaseSessions(evicted)
	return eng, nil
}

// peekSession returns id's existing engine without creating one —
// read-only endpoints (/stats) and idempotent ones (/reset) must not spend
// a factory run, and at the session cap must not evict a live analyst's
// session, just because a probe named an unknown id.
func (s *Server) peekSession(id string) (*core.Engine, bool) {
	sh := s.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sess, ok := sh.sessions[id]
	if !ok {
		return nil, false
	}
	return sess.eng, true
}

// hasSession reports whether id currently has a live engine (test hook).
func (s *Server) hasSession(id string) bool {
	_, ok := s.peekSession(id)
	return ok
}

// sweepLocked removes every session idle past the TTL from this shard's
// tables and returns them for release. It scans only this shard, under
// this shard's lock: a sweep here cannot block another shard's requests.
func (sh *sessionShard) sweepLocked(now time.Time) []*session {
	if sh.srv.cfg.SessionTTL <= 0 {
		return nil
	}
	var evicted []*session
	for sh.recency.Len() > 0 {
		oldest := sh.recency.Back().Value.(*session)
		if now.Sub(oldest.lastSeen) <= sh.srv.cfg.SessionTTL {
			break
		}
		evicted = append(evicted, sh.evictLocked(oldest))
	}
	return evicted
}

// evictLocked unlinks a session from the shard tables. The scheduler
// cleanup happens in releaseSessions, outside the shard lock: detaching
// waits out any in-flight request on the session's engine, which must not
// stall the shard.
func (sh *sessionShard) evictLocked(sess *session) *session {
	sh.recency.Remove(sess.el)
	delete(sh.sessions, sess.id)
	sh.evicted++
	sh.retireStatsLocked(sess)
	return sess
}

// retireStatsLocked folds a departing session's cache counters into the
// shard's lifetime totals. Reading the engine's cache stats under the
// shard lock is safe: the cache mutex is a leaf lock, never held while
// acquiring a shard's mu.
func (sh *sessionShard) retireStatsLocked(sess *session) {
	sh.retired.Add(sess.eng.LifetimeCacheStats())
}

// tierStats is one pass over the session tier: each shard read under one
// hold of its lock and the totals summed from those same reads, so within
// one /stats or /metrics answer every total equals the sum of its per-shard
// series.
type tierStats struct {
	shardSessions, shardEvicted []int // by shard id
	sessions, evicted           int
	// cache is the lifetime cache counters of every session ever, departed
	// (the shards' retired baselines) and live; zero unless asked for.
	cache cache.Stats
}

// gather takes the tier's snapshot. The cache aggregate costs one cache
// lock per live engine — taken outside the shard locks — so only callers
// that render it (withCache) pay for it.
func (s *Server) gather(withCache bool) tierStats {
	t := tierStats{shardSessions: make([]int, len(s.shards)), shardEvicted: make([]int, len(s.shards))}
	var engines []*core.Engine
	for i, sh := range s.shards {
		sh.mu.Lock()
		t.shardSessions[i], t.shardEvicted[i] = len(sh.sessions), sh.evicted
		if withCache {
			t.cache.Add(sh.retired)
			for _, sess := range sh.sessions {
				engines = append(engines, sess.eng)
			}
		}
		sh.mu.Unlock()
		t.sessions += t.shardSessions[i]
		t.evicted += t.shardEvicted[i]
	}
	for _, eng := range engines {
		t.cache.Add(eng.LifetimeCacheStats())
	}
	return t
}

// releaseSessions finishes evictions outside the shard lock: the engine is
// detached first (so a request running right now cannot re-register the
// session with the scheduler after the cancel), then the session's queued
// prefetches are dropped and its push stream, if any, is torn down (the
// stream handler observes the closed done channel and returns — an evicted
// session must not leak a goroutine holding a hijackable response).
func (s *Server) releaseSessions(evicted []*session) {
	if s.cfg.Scheduler == nil && s.cfg.Push == nil {
		return
	}
	for _, sess := range evicted {
		sess.eng.DetachScheduler()
		if s.cfg.Scheduler != nil {
			s.cfg.Scheduler.CancelSession(sess.id)
		}
		if s.cfg.Push != nil {
			s.cfg.Push.Detach(sess.id)
		}
	}
}

// Sessions returns the number of live sessions across all shards.
func (s *Server) Sessions() int { return s.gather(false).sessions }

// Evicted returns how many sessions have been evicted (TTL or LRU cap)
// across all shards.
func (s *Server) Evicted() int { return s.gather(false).evicted }

// Scheduler returns the attached shared prefetch pipeline (nil when the
// deployment prefetches inline).
func (s *Server) Scheduler() *prefetch.Scheduler { return s.cfg.Scheduler }

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
	eng, err := s.session(id)
	endSession()
	if err != nil {
		sessionError(w, err)
		return
	}
	resp, err := eng.RequestTraced(c, rt)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if s.cfg.Push != nil {
		// Close the push-to-consume loop: if this tile was framed onto the
		// session's stream, its lead time (push to request) is observed now.
		s.cfg.Push.Consumed(id, c)
	}
	if resp.Hit {
		w.Header().Set("X-Cache", "HIT")
	} else {
		w.Header().Set("X-Cache", "MISS")
	}
	w.Header().Set("X-Phase", resp.Phase.String())
	w.Header().Set("X-Latency-Ms",
		strconv.FormatFloat(float64(resp.Latency)/float64(time.Millisecond), 'f', 3, 64))
	endWrite := rt.StartSpan("write")
	s.writeTile(w, r, c, resp.Tile)
	endWrite()
}

// StatsResponse is the /stats payload: the session's cache counters (when
// the session exists) plus server-wide session and prefetch-pipeline
// telemetry — including the scheduler's backpressure signal, per-session
// queue depths (Scheduler.QueueDepths), the per-shard session spread and,
// for deployments with adaptive allocation, the learned per-(phase,
// model) budget shares. Asking for an unknown session returns the
// server-wide fields only — it does not create a session.
type StatsResponse struct {
	Cache    *cache.Stats `json:"cache,omitempty"`
	Sessions int          `json:"sessions"`
	Evicted  int          `json:"evicted"`
	Closed   bool         `json:"closed,omitempty"`
	// Shards is the session-tier shard count (1 = the single-table
	// layout); ShardSessions is the live-session count per shard, in
	// shard-id order, summing exactly to Sessions within this snapshot.
	Shards        int             `json:"shards"`
	ShardSessions []int           `json:"shard_sessions"`
	Pressure      float64         `json:"pressure"`
	Scheduler     *prefetch.Stats `json:"scheduler,omitempty"`
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
	// The session tier's snapshot, then the scheduler counters under the
	// pipeline's own snapshot discipline. /stats stays answerable during and
	// after Close — it reports the torn-down state instead of racing it.
	tier := s.gather(false)
	out := StatsResponse{
		Sessions:      tier.sessions,
		Evicted:       tier.evicted,
		Closed:        s.closed.Load(),
		Shards:        len(s.shards),
		ShardSessions: tier.shardSessions,
		Uptime:        max(0, s.now().Sub(s.start).Seconds()),
		GoVersion:     runtime.Version(),
		Build:         buildInfoMap(),
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
