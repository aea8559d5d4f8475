// Package core implements ForeCache's two-level prediction engine, the
// paper's primary contribution (§4). The top level classifies the user's
// current analysis phase from her recent requests; the bottom level runs
// several tile recommendation models in parallel; an allocation policy
// converts the predicted phase into per-model shares of the prefetch
// budget, and the cache manager prefetches the models' top-ranked tiles
// before the user's next request arrives.
package core

import (
	"fmt"
	"sort"
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
// every field below RecentTiles means "off": a synchronous, uninstrumented
// engine that reports its cache outcomes to nobody.
type Config struct {
	// K is the prefetch budget in tiles (the paper sweeps k = 1..8).
	K int
	// D is the prediction distance in moves (paper default d = 1).
	D int
	// HistoryLen is the session history window n.
	HistoryLen int
	// RecentTiles is the LRU region capacity for the last requested tiles.
	RecentTiles int

	// Scheduler switches the engine from inline (synchronous) prefetching to
	// submit-and-return: after each request the ranked candidates are handed
	// to the shared scheduler under the Session id, and the DBMS fetches
	// happen off the response path, delivered into this engine's cache as
	// they complete. The synchronous default is kept for the eval harness so
	// paper experiments stay deterministic.
	Scheduler Submitter
	Session   string
	// AdaptiveK makes the engine respond to scheduler backpressure: each
	// request reads the scheduler's Pressure signal and shrinks the prefetch
	// budget from K down toward 1 as the shared queue saturates, restoring it
	// as the queue drains. Only meaningful with a Scheduler; a synchronous
	// engine always prefetches with the full K.
	AdaptiveK bool
	// FairShare switches an adaptive engine from the global Pressure signal
	// to the scheduler's per-session one: the budget shrinks only to the
	// extent ITS session crowds the shared queue past its fair share, so a
	// flooding session's K collapses first while light sessions keep
	// prefetching at full budget. Only meaningful with AdaptiveK.
	FairShare bool
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
	// Obs is the deployment's observability pipeline: synchronous backend
	// fetches report their wall time, and the engine's cache reports each
	// prefetched tile's lead time (insert to first consumption). The
	// request-path span breakdown additionally requires the caller to pass a
	// trace to RequestTraced.
	Obs *obs.Pipeline
}

// DefaultConfig mirrors the paper's experimental defaults.
func DefaultConfig() Config {
	return Config{K: 5, D: 1, HistoryLen: 3, RecentTiles: 4}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.K <= 0 {
		c.K = d.K
	}
	if c.D <= 0 {
		c.D = d.D
	}
	if c.HistoryLen <= 0 {
		c.HistoryLen = d.HistoryLen
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
	// Prefetched lists the tiles fetched ahead for the next request.
	Prefetched []tile.Coord
	// PrefetchBudget is the effective K this request prefetched with: the
	// configured K, shrunk by scheduler backpressure when the engine runs
	// with Config.AdaptiveK.
	PrefetchBudget int
}

// Submitter is the asynchronous prefetch pipeline engines hand ranked
// candidate batches to (implemented by *prefetch.Scheduler). Submit
// enqueues a batch and returns immediately; CancelSession drops a
// session's still-queued entries; Pressure reports the pipeline's global
// queue saturation in [0, 1] — the backpressure signal AdaptiveK
// engines use to shrink their prefetch budget under load. SessionPressure
// is the fair-share variant of the same signal, scoped to one session:
// sessions at or under their fair share of the queue read 0 while the
// flooding session reads up to the full global pressure (FairShare
// engines shrink on it instead).
type Submitter interface {
	Submit(session string, reqs []prefetch.Request) int
	CancelSession(session string)
	Pressure() float64
	SessionPressure(session string) float64
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

// adaptiveBudget maps backpressure to an effective prefetch budget: the
// full K at zero pressure, linearly down to a single tile at saturation.
// One tile is always kept — the top prediction stays worth submitting even
// on a saturated queue, since it may coalesce with another session's fetch.
func adaptiveBudget(k int, pressure float64) int {
	if pressure <= 0 || k <= 1 {
		return k
	}
	if pressure > 1 {
		pressure = 1
	}
	eff := k - int(pressure*float64(k-1)+0.5)
	if eff < 1 {
		eff = 1
	}
	return eff
}

// Engine is one user session's middleware: prediction engine + cache
// manager + DBMS adapter (Figure 5). It is safe for concurrent use, though
// a session's requests are inherently sequential.
type Engine struct {
	cfg        Config
	db         backend.Store
	classifier *phase.Classifier // nil => phase always PhaseUnknown
	policy     AllocationPolicy
	models     map[string]recommend.Model

	mu sync.Mutex
	// sched starts as cfg.Scheduler and is the one wired value that changes:
	// DetachScheduler clears it. nil => inline synchronous prefetch.
	sched   Submitter
	cache   *cache.Manager
	history *trace.History
	last    trace.Request
	started bool
	// epoch increments on Reset so asynchronous deliveries submitted
	// before a Reset cannot repopulate the freshly cleared cache.
	epoch uint64
}

// NewEngine assembles an engine. classifier may be nil (single-model
// baselines); every model the policy can allocate to must be present. A
// deployment's engines may share one policy (*AdaptivePolicy): the learned
// split then reflects all traffic and is exported once.
func NewEngine(db backend.Store, classifier *phase.Classifier, policy AllocationPolicy, models []recommend.Model, cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	if db == nil {
		return nil, fmt.Errorf("core: nil DBMS")
	}
	if policy == nil {
		return nil, fmt.Errorf("core: nil allocation policy")
	}
	byName := make(map[string]recommend.Model, len(models))
	for _, m := range models {
		byName[m.Name()] = m
	}
	// A policy that names its models (AdaptivePolicy) is probed read-only —
	// calling Allocations on the deployment's shared learning policy would
	// mutate its state as a side effect of every session construction.
	var names []string
	if mp, ok := policy.(interface{ Models() []string }); ok {
		names = mp.Models()
	} else {
		for _, ph := range []trace.Phase{trace.Foraging, trace.Sensemaking} {
			for name := range policy.Allocations(ph, cfg.K) {
				names = append(names, name)
			}
		}
	}
	for _, name := range names {
		if _, ok := byName[name]; !ok {
			return nil, fmt.Errorf("core: policy references unknown model %q", name)
		}
	}
	e := &Engine{
		cfg:        cfg,
		db:         db,
		classifier: classifier,
		policy:     policy,
		models:     byName,
		sched:      cfg.Scheduler,
		cache:      cache.NewManager(cfg.RecentTiles),
		history:    trace.NewHistory(cfg.HistoryLen),
	}
	e.cache.TrackOutcomes(cfg.Feedback != nil || cfg.Consumption != nil)
	e.cache.SetObs(cfg.Obs)
	return e, nil
}

// Async reports whether prefetching is routed through a shared scheduler.
func (e *Engine) Async() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.sched != nil
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

// DetachScheduler disconnects the engine from the shared scheduler; later
// requests prefetch inline and pending deliveries are discarded. The server
// calls this when evicting a session, before cancelling the session's
// scheduler state: acquiring the engine lock waits out any in-flight
// request, so no Submit can trail the detach and resurrect the session.
func (e *Engine) DetachScheduler() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.sched = nil
	e.epoch++
}

// deliver installs an asynchronously fetched tile into the model's cache
// region at the batch position it was ranked at and the phase predicted
// when the batch was submitted — unless the engine was reset or detached
// after the tile was requested, in which case the stale delivery is
// dropped. Runs on a scheduler worker; it holds the engine lock so it
// serializes with Reset.
func (e *Engine) deliver(model string, epoch uint64, pos int, ph trace.Phase, t *tile.Tile) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.epoch != epoch || e.sched == nil {
		return
	}
	e.cache.InsertPrediction(model, t, pos, ph)
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

// Reset starts a fresh session: history, cache contents, model state and
// statistics are cleared.
func (e *Engine) Reset() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.history.Reset()
	e.cache.Clear()
	e.cache.ResetStats()
	for _, m := range e.models {
		m.Reset()
	}
	e.last = trace.Request{Move: trace.None}
	e.started = false
	e.epoch++
	if e.sched != nil {
		e.sched.CancelSession(e.cfg.Session)
	}
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
// backend_fetch (sync misses only; async fetches report to the histograms
// from the scheduler instead) and prefetch spans, plus the hit/miss
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
		var fetchStart time.Time
		if e.cfg.Obs != nil {
			fetchStart = time.Now()
		}
		t, err := e.db.Fetch(c) // charges the miss latency on the clock
		if e.cfg.Obs != nil {
			e.cfg.Obs.ObserveBackendFetch(time.Since(fetchStart))
		}
		endFetch()
		if err != nil {
			return nil, err
		}
		resp.Tile = t
		resp.Latency = e.db.Latency().Miss
		rt.SetOutcome(obs.OutcomeMiss)
	}
	e.cache.InsertRecent(resp.Tile)

	// Update session state and model observations.
	e.history.Push(req)
	for _, m := range e.models {
		m.Observe(req)
	}
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
	// Bottom level: re-evaluate allocations, run the models in parallel,
	// and prefetch their top-ranked tiles for the next request — inline by
	// default, or submitted to the shared scheduler in async mode. Under
	// backpressure an adaptive engine spends a smaller budget: queueing the
	// full K onto a saturated scheduler only creates entries that decay or
	// get shed before their fetch is issued. Only the submitted batch
	// shrinks — the cache regions stay sized for the configured K, so
	// pressure never evicts tiles the scheduler already delivered.
	k := e.cfg.K
	if e.cfg.AdaptiveK && e.sched != nil {
		p := e.sched.Pressure()
		if e.cfg.FairShare {
			p = e.sched.SessionPressure(e.cfg.Session)
		}
		k = adaptiveBudget(k, p)
	}
	resp.PrefetchBudget = k
	allocs := e.policy.Allocations(resp.Phase, e.cfg.K)
	e.cache.SetAllocations(allocs)
	fetchAllocs := allocs
	if k != e.cfg.K {
		fetchAllocs = e.policy.Allocations(resp.Phase, k)
	}
	if e.sched != nil {
		resp.Prefetched = e.submitPrefetch(req, fetchAllocs, resp.Phase)
	} else {
		resp.Prefetched = e.prefetch(req, fetchAllocs, resp.Phase)
	}
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

// modelRanked pairs one model's name with its top-k ranked predictions.
type modelRanked struct {
	name   string
	ranked []recommend.Ranked
}

// rankModels runs every allotted model concurrently (the paper runs
// recommenders in parallel) and collects their top-ranked candidates.
func (e *Engine) rankModels(req trace.Request, allocs map[string]int) []modelRanked {
	cands := recommend.Candidates(e.db.Pyramid(), req.Coord, e.cfg.D)
	results := make(chan modelRanked, len(allocs))
	var wg sync.WaitGroup
	for name, k := range allocs {
		m := e.models[name]
		if m == nil || k <= 0 {
			continue
		}
		wg.Add(1)
		go func(name string, m recommend.Model, k int) {
			defer wg.Done()
			ranked := recommend.TopK(m.Predict(req, cands, e.history), k)
			results <- modelRanked{name: name, ranked: ranked}
		}(name, m, k)
	}
	wg.Wait()
	close(results)
	out := make([]modelRanked, 0, len(allocs))
	for r := range results {
		out = append(out, r)
	}
	return out
}

// prefetch is the synchronous path: it loads the models' winners into the
// cache via quiet DBMS fetches inline (prefetching happens while the user
// analyzes the current view, off the response path). The eval harness uses
// this mode so the paper's experiments stay deterministic.
func (e *Engine) prefetch(req trace.Request, allocs map[string]int, ph trace.Phase) []tile.Coord {
	var fetched []tile.Coord
	seen := map[tile.Coord]bool{}
	for _, r := range e.rankModels(req, allocs) {
		tiles := make([]*tile.Tile, 0, len(r.ranked))
		for _, pred := range r.ranked {
			var fetchStart time.Time
			if e.cfg.Obs != nil {
				fetchStart = time.Now()
			}
			t, err := e.db.FetchQuiet(pred.Coord)
			if e.cfg.Obs != nil {
				e.cfg.Obs.ObserveBackendFetch(time.Since(fetchStart))
			}
			if err != nil {
				continue
			}
			tiles = append(tiles, t)
			if !seen[pred.Coord] {
				seen[pred.Coord] = true
				fetched = append(fetched, pred.Coord)
			}
		}
		e.cache.FillPredictions(r.name, tiles, ph)
	}
	return fetched
}

// submitPrefetch is the asynchronous path: the ranked candidates become one
// batch submitted to the shared scheduler, which fetches them off the
// response path (coalescing duplicates across sessions) and delivers each
// tile into this engine's cache as it completes. The returned coordinates
// are the ones submitted, not necessarily loaded yet.
func (e *Engine) submitPrefetch(req trace.Request, allocs map[string]int, ph trace.Phase) []tile.Coord {
	var reqs []prefetch.Request
	var submitted []tile.Coord
	seen := map[tile.Coord]bool{}
	epoch := e.epoch // caller holds e.mu
	for _, r := range e.rankModels(req, allocs) {
		name := r.name
		for pi, pred := range r.ranked {
			pos := pi // the model's rank: the position outcomes attribute to
			reqs = append(reqs, prefetch.Request{
				Coord: pred.Coord,
				Score: pred.Score,
				Model: name,
				Deliver: func(t *tile.Tile) {
					e.deliver(name, epoch, pos, ph, t)
				},
			})
			if !seen[pred.Coord] {
				seen[pred.Coord] = true
				submitted = append(submitted, pred.Coord)
			}
		}
	}
	// Model results arrive in goroutine-completion order; sort so the batch
	// the scheduler sees (and therefore its queue order) is deterministic.
	sort.SliceStable(reqs, func(i, j int) bool {
		if reqs[i].Score != reqs[j].Score {
			return reqs[i].Score > reqs[j].Score
		}
		return reqs[i].Coord.Less(reqs[j].Coord)
	})
	sort.Slice(submitted, func(i, j int) bool { return submitted[i].Less(submitted[j]) })
	e.sched.Submit(e.cfg.Session, reqs)
	return submitted
}
