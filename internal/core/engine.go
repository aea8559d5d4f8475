// Package core implements ForeCache's two-level prediction engine, the
// paper's primary contribution (§4). The top level classifies the user's
// current analysis phase from their recent requests; an allocation policy
// converts the predicted phase into per-model shares of the prefetch
// budget; the bottom level has each tile recommendation model rank its
// share of candidates in turn, and the cache manager prefetches that one
// batch before the user's next request arrives.
package core

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"forecache/internal/backend"
	"forecache/internal/cache"
	"forecache/internal/obs"
	"forecache/internal/phase"
	"forecache/internal/prefetch"
	"forecache/internal/recommend"
	"forecache/internal/tile"
	"forecache/internal/trace"
)

// Config sizes and wires one prediction engine / session. The zero value of
// every field below RecentTiles means "off": an engine that prefetches
// before its request returns, is uninstrumented and reports its cache
// outcomes to nobody.
type Config struct {
	// K is the prefetch budget in tiles (the paper sweeps k = 1..8).
	K int
	// D is the prediction distance in moves (paper default d = 1).
	D int
	// RecentTiles is the LRU region capacity for the last requested tiles.
	RecentTiles int

	// Scheduler is the Submitter each request's ranked batch is handed to;
	// its deliveries land in this engine's cache as they complete. Nil
	// gives the engine a private scheduler without workers, run after each
	// submit: the paper's think-time model, in which the whole batch is
	// delivered before Request returns (what the eval harness replays,
	// deterministically). The engine always hands over its whole batch: how
	// much of it to admit under load is the scheduler's decision.
	Scheduler Submitter
	// Feedback closes the prediction-quality loop: the engine tracks each
	// prefetched tile's fate in its cache (consumed vs evicted unconsumed,
	// attributed to the model, batch position and predicted phase that
	// prefetched it) and reports the outcomes here after every request.
	// Sharing one *prefetch.FeedbackCollector across a deployment's engines
	// and its scheduler lets admission control learn the position-utility
	// curve — and an AdaptivePolicy the per-phase model split — from real
	// consumption instead of the static guesses.
	Feedback FeedbackObserver
	// Consumption receives the coordinates of consumed prefetched tiles (one
	// call per tile per request, however many models predicted it). Sharing
	// one *recommend.Hotspot across a deployment's engines this way is what
	// turns per-session cache outcomes into the population-level hotspot
	// signal. Independent of Feedback; either alone enables outcome tracking.
	Consumption ConsumptionObserver
	// Obs is the deployment's observability pipeline: the engine's demand
	// fetches (and its private scheduler, if any) report their wall time,
	// and the engine's cache reports each prefetched tile's lead time
	// (insert to first consumption). The request-path span breakdown
	// additionally requires the caller to pass a trace to RequestTraced.
	Obs *obs.Pipeline
}

// HistoryLen is the session history window n every engine keeps (paper:
// n = 3).
const HistoryLen = 3

// DefaultConfig mirrors the paper's experimental defaults.
func DefaultConfig() Config {
	return Config{K: 5, D: 1, RecentTiles: 4}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.K <= 0 {
		c.K = d.K
	}
	if c.D <= 0 {
		c.D = d.D
	}
	if c.RecentTiles <= 0 {
		c.RecentTiles = d.RecentTiles
	}
	return c
}

// Response reports one served tile request.
type Response struct {
	Tile *tile.Tile
	// Hit reports whether the middleware cache already held the tile.
	Hit bool
	// Latency is the modeled service time for this request.
	Latency time.Duration
	// Phase is the classifier's prediction for the user's current phase
	// (PhaseUnknown when the engine runs without a classifier).
	Phase trace.Phase
	// Prefetched lists the distinct tiles submitted for the next request,
	// in coordinate order.
	Prefetched []tile.Coord
}

// Submitter is one session's prefetch pipeline, which its engine hands
// ranked candidate batches to: a *prefetch.Session handle on the
// deployment's scheduler or on the engine's private one. Submit (called
// under the engine's lock) takes a batch, admits as much of it as its own
// admission control allows, and calls each admitted entry's Deliver once
// its tile is fetched, now or later; Cancel drops the session's
// still-queued entries.
type Submitter interface {
	Submit(reqs []prefetch.Request) int
	Cancel()
}

// FeedbackObserver receives the cache's prefetch outcomes — "the tile
// prefetched by model at batch position pos, under predicted phase ph, was
// (or was not) consumed" — one call per outcome, drained after every
// request. Implemented by *prefetch.FeedbackCollector, which fits the
// scheduler's position-utility curve and the per-(phase, model)
// consumption rates (the AdaptivePolicy signal) from these observations.
type FeedbackObserver interface {
	Observe(ph trace.Phase, model string, pos int, hit bool)
}

// ConsumptionObserver receives the coordinates of consumed prefetched
// tiles, deduplicated per request: where FeedbackObserver judges each
// MODEL's prediction (so agreeing models all get credit), a
// ConsumptionObserver is told once that the TILE was consumed. It is fed
// from the same cache.Outcome stream, and is how the deployment-wide
// hotspot recommender (*recommend.Hotspot) learns cross-session
// consumption frequencies.
type ConsumptionObserver interface {
	ObserveConsumption(c tile.Coord, ph trace.Phase)
}

// Engine is one user session's middleware: prediction engine + cache
// manager + DBMS adapter (Figure 5). It is safe for concurrent use, though
// a session's requests are inherently sequential.
type Engine struct {
	cfg        Config
	db         backend.Store
	classifier *phase.Classifier // nil => phase always PhaseUnknown
	policy     AllocationPolicy
	models     []recommend.Model // the deployment's shared models, by name: the ranking order

	mu      sync.Mutex
	cache   *cache.Manager
	history *trace.History
	last    trace.Request
	started bool
}

// NewEngine assembles an engine. classifier may be nil (single-model
// baselines); every model the policy can allocate to must be present. A
// deployment's engines share one model set: models hold no session state,
// since the engine hands each Predict this session's history. They may
// share one policy too (*AdaptivePolicy): the learned split then reflects
// all traffic and is exported once.
func NewEngine(db backend.Store, classifier *phase.Classifier, policy AllocationPolicy, models []recommend.Model, cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	if db == nil {
		return nil, fmt.Errorf("core: nil DBMS")
	}
	if policy == nil {
		return nil, fmt.Errorf("core: nil allocation policy")
	}
	models = slices.SortedFunc(slices.Values(models), func(a, b recommend.Model) int {
		return strings.Compare(a.Name(), b.Name())
	})
	for _, name := range policy.Models() {
		if !slices.ContainsFunc(models, func(m recommend.Model) bool { return m.Name() == name }) {
			return nil, fmt.Errorf("core: policy references unknown model %q", name)
		}
	}
	e := &Engine{
		cfg:        cfg,
		db:         db,
		classifier: classifier,
		policy:     policy,
		models:     models,
		cache:      cache.NewManager(cfg.RecentTiles),
		history:    trace.NewHistory(HistoryLen),
	}
	if e.cfg.Scheduler == nil {
		sched := prefetch.NewScheduler(db, prefetch.Config{Obs: cfg.Obs})
		e.cfg.Scheduler = callerRun{Session: sched.Open("", nil), sched: sched}
	}
	e.cache.TrackOutcomes(cfg.Feedback != nil || cfg.Consumption != nil)
	e.cache.SetObs(cfg.Obs)
	return e, nil
}

// CachedPredictions snapshots the live prediction entries in this
// session's cache regions without touching consumption marks, outcomes or
// statistics. The push layer uses it to backfill a re-attached stream from
// what prefetching already loaded; because the read is side-effect free,
// replaying it cannot double-count any feedback outcome.
func (e *Engine) CachedPredictions() []cache.Prediction {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.cache.Predictions()
}

// CacheStats snapshots the cache counters (hit rate = prediction accuracy,
// paper §5.2.2).
func (e *Engine) CacheStats() cache.Stats {
	return e.cache.Stats()
}

// LifetimeCacheStats is CacheStats without Reset's zeroing: the counters
// since the engine was built, for series that must never decrease.
func (e *Engine) LifetimeCacheStats() cache.Stats {
	return e.cache.LifetimeStats()
}

// Reset starts a fresh session: history (with its region of interest),
// cache contents and statistics are cleared.
func (e *Engine) Reset() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.history.Reset()
	e.cache.Clear()
	e.cache.ResetStats()
	e.last = trace.Request{Move: trace.None}
	e.started = false
	e.cfg.Scheduler.Cancel()
}

// Request serves a tile request addressed by coordinate, inferring the
// move from the previous request, then prefetches for the next one. This
// is the full per-request cycle of Figure 5: visualizer -> prediction
// engine -> cache manager -> (SciDB on a miss).
func (e *Engine) Request(c tile.Coord) (*Response, error) {
	return e.RequestTraced(c, nil)
}

// RequestTraced is Request with a span breakdown: the caller's trace (nil
// is fine — every span call is a no-op then) gets cache_lookup,
// backend_fetch (demand misses only; prefetch fetches report to the
// histograms instead) and prefetch spans, plus the hit/miss
// outcome. The server's /tile handler owns the trace; the engine only
// annotates it.
func (e *Engine) RequestTraced(c tile.Coord, rt *obs.ReqTrace) (*Response, error) {
	e.mu.Lock()
	defer e.mu.Unlock()

	mv := trace.None
	if e.started {
		got, ok := trace.MoveBetween(e.last.Coord, c)
		if !ok {
			return nil, fmt.Errorf("core: request %v is not one move from %v (no jumping, paper §2.2)", c, e.last.Coord)
		}
		mv = got
	}
	req := trace.Request{Coord: c, Move: mv}

	// Serve the tile: middleware cache first, SciDB on a miss.
	resp := &Response{}
	endLookup := rt.StartSpan("cache_lookup")
	t, ok := e.cache.Lookup(c)
	endLookup()
	if ok {
		resp.Tile, resp.Hit = t, true
		resp.Latency = e.db.Latency().Hit
		rt.SetOutcome(obs.OutcomeHit)
	} else {
		endFetch := rt.StartSpan("backend_fetch")
		start := time.Now()
		t, err := e.db.Fetch(c) // charges the miss latency on the clock
		e.cfg.Obs.ObserveBackendFetch(time.Since(start))
		endFetch()
		if err != nil {
			return nil, err
		}
		resp.Tile = t
		resp.Latency = e.db.Latency().Miss
		rt.SetOutcome(obs.OutcomeMiss)
	}
	e.cache.InsertRecent(resp.Tile)

	// Update session state: the history window and the region of interest.
	e.history.Push(req)
	e.last = req
	e.started = true

	// Top level: predict the current analysis phase.
	if e.classifier != nil {
		resp.Phase = e.classifier.Predict(req)
	}

	// A request-path miss is a consumption the prefetcher failed to
	// anticipate — exactly the signal the population-level hotspot table
	// should learn from, not just the predictions that worked. Prefetched
	// consumptions are reported from the outcome stream below; a missed
	// tile by definition had no prediction entry to hit, so the two feeds
	// cannot double-count one consumption.
	if e.cfg.Consumption != nil && !resp.Hit {
		e.cfg.Consumption.ObserveConsumption(c, resp.Phase)
	}

	endPrefetch := rt.StartSpan("prefetch")
	// Bottom level: re-evaluate allocations, rank one batch across the
	// models, and submit it for the next request.
	allocs := e.policy.Allocations(resp.Phase, e.cfg.K)
	e.cache.SetAllocations(allocs)
	batch, coords := e.rank(req, allocs)
	e.submit(batch, resp.Phase)
	resp.Prefetched = coords
	endPrefetch()

	// Close the loop: report this request's prefetch outcomes (hits at
	// consumption, misses at eviction — including evictions the allocation
	// change above just caused) to the deployment's feedback collector, so
	// the scheduler's position-utility curve and the adaptive policy's
	// per-(phase, model) split track real consumption — and the consumed
	// coordinates to the consumption sink (the cross-session hotspot
	// table), deduplicated so a tile several models predicted counts as
	// one consumption, not one per agreeing model.
	if e.cfg.Feedback != nil || e.cfg.Consumption != nil {
		var consumed map[tile.Coord]bool
		for _, o := range e.cache.TakeOutcomes() {
			if e.cfg.Feedback != nil {
				e.cfg.Feedback.Observe(o.Phase, o.Model, o.Position, o.Hit)
			}
			if e.cfg.Consumption != nil && o.Hit && !consumed[o.Coord] {
				if consumed == nil {
					consumed = make(map[tile.Coord]bool, 4)
				}
				consumed[o.Coord] = true
				e.cfg.Consumption.ObserveConsumption(o.Coord, o.Phase)
			}
		}
	}
	return resp, nil
}

// prediction is one model's ranked candidate at one batch position.
type prediction struct {
	model string
	pos   int // the model's rank: the position outcomes attribute to
	recommend.Ranked
}

// rank is the bottom level: each model with a positive allotment, in name
// order, ranks the candidates around req and keeps its top slots, less any
// coordinate the pyramid does not contain. It returns the batch, one entry
// per (model, position), and the batch's distinct coordinates in
// coordinate order.
func (e *Engine) rank(req trace.Request, allocs map[string]int) ([]prediction, []tile.Coord) {
	cands := recommend.Candidates(e.db.Pyramid(), req.Coord, e.cfg.D)
	batch := make([]prediction, 0, e.cfg.K) // allocations sum to at most K
	coords := make([]tile.Coord, 0, e.cfg.K)
	for _, m := range e.models {
		name := m.Name()
		if allocs[name] <= 0 {
			continue
		}
		for pos, r := range recommend.TopK(m.Predict(req, cands, e.history), allocs[name]) {
			if !e.db.Pyramid().Contains(r.Coord) {
				continue
			}
			batch = append(batch, prediction{model: name, pos: pos, Ranked: r})
			coords = append(coords, r.Coord)
		}
	}
	slices.SortFunc(coords, func(a, b tile.Coord) int {
		return cmp.Or(cmp.Compare(a.Level, b.Level), cmp.Compare(a.Y, b.Y), cmp.Compare(a.X, b.X))
	})
	return batch, slices.Compact(coords)
}

// submit hands the batch to the engine's submitter. Each entry's delivery
// lands in its model's cache region at the batch position it was ranked at
// and the phase predicted now, unless the cache has moved to a new
// generation since (a Reset), in which case it is dropped. An
// entry whose tile is already live in its model's region is refreshed in
// place first, so the batch's other deliveries cannot ring it out as an
// unconsumed miss before its own arrives. The caller holds e.mu.
func (e *Engine) submit(batch []prediction, ph trace.Phase) {
	gen := e.cache.Generation()
	reqs := make([]prefetch.Request, len(batch))
	for i := range batch {
		p := &batch[i] // captured by pointer: a smaller closure per entry
		e.cache.RefreshPrediction(p.model, p.Coord, p.pos, ph)
		reqs[i] = prefetch.Request{
			Coord: p.Coord,
			Score: p.Score,
			Model: p.model,
			Deliver: func(t *tile.Tile) {
				e.cache.InsertPrediction(p.model, gen, t, p.pos, ph)
			},
		}
	}
	e.cfg.Scheduler.Submit(reqs)
}

// callerRun is the Submitter of an engine built without a scheduler: a
// handle on its private scheduler without workers, run to idle after each
// submit, so the batch is fetched (one quiet DBMS fetch per distinct
// coordinate) and delivered before the user's next request.
type callerRun struct {
	*prefetch.Session
	sched *prefetch.Scheduler
}

func (r callerRun) Submit(reqs []prefetch.Request) int {
	n := r.Session.Submit(reqs)
	r.sched.Run(-1)
	return n
}
