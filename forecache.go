package forecache

import (
	"fmt"
	"log/slog"
	"slices"
	"time"

	"forecache/internal/backend"
	"forecache/internal/core"
	"forecache/internal/eval"
	"forecache/internal/modis"
	"forecache/internal/obs"
	"forecache/internal/persist"
	"forecache/internal/phase"
	"forecache/internal/prefetch"
	"forecache/internal/push"
	"forecache/internal/recommend"
	"forecache/internal/server"
	"forecache/internal/sig"
	"forecache/internal/study"
	"forecache/internal/tile"
	"forecache/internal/trace"
)

// Re-exported core types so downstream code can use the facade alone.
type (
	// Coord addresses one data tile (zoom level, row, column).
	Coord = tile.Coord
	// Tile is one data tile with its signature metadata.
	Tile = tile.Tile
	// Pyramid is the materialized set of zoom levels and tiles.
	Pyramid = tile.Pyramid
	// Grid is a raw dataset: one row-major plane per attribute, NaN
	// marking an empty cell. BuildPyramid tiles it.
	Grid = tile.Grid
	// SignatureConfig names the attribute BuildPyramid's signatures
	// describe, its value range and the codebook's training seed.
	SignatureConfig = sig.Config
	// Trace is one recorded user session.
	Trace = trace.Trace
	// Request is one tile request within a trace.
	Request = trace.Request
	// Move is one interface action (pan / zoom in / zoom out).
	Move = trace.Move
	// Phase is the user's analysis phase.
	Phase = trace.Phase
	// Engine is a per-session middleware instance (prediction engine +
	// cache manager + DBMS adapter).
	Engine = core.Engine
	// Response reports one served tile request.
	Response = core.Response
	// LatencyModel holds the hit/miss service times.
	LatencyModel = backend.LatencyModel
	// Harness runs the paper's experiments over one dataset and its
	// traces, at the paper's history window (n = 3).
	Harness = eval.Harness
	// Server is the HTTP middleware front door.
	Server = server.Server
	// Scheduler is the shared asynchronous prefetch pipeline: one queue
	// and worker pool per MiddlewareConfig.Shards, routed by session id.
	Scheduler = prefetch.Scheduler
	// PrefetchStats snapshots scheduler activity (queued, coalesced,
	// cancelled, completed, queue latency, ...).
	PrefetchStats = prefetch.Stats
	// FeedbackCollector fits the position-utility curve and the
	// per-(phase, model) consumption rates from observed cache outcomes
	// (UtilityLearning, AdaptiveAllocation).
	FeedbackCollector = prefetch.FeedbackCollector
	// AdaptivePolicy re-splits the prefetch budget per phase from observed
	// consumption (AdaptiveAllocation).
	AdaptivePolicy = core.AdaptivePolicy
)

// Dataset bundles a built world: the tile pyramid with signatures and the
// signature computer. The grid the pyramid was built from is not kept; the
// tiles hold every cell.
type Dataset struct {
	Pyramid    *tile.Pyramid
	Signatures *sig.Computer
	Attr       string
}

// WorldConfig sizes the synthetic MODIS world.
type WorldConfig struct {
	// Seed makes the world reproducible.
	Seed int64
	// Size is the raw grid resolution (cells per side). Default 512.
	Size int
	// TileSize is the per-side cell count of every tile. Default 16.
	TileSize int
}

// codebookTiles is how many sampled tiles train the SIFT visual-word
// codebook.
const codebookTiles = 80

func (c WorldConfig) withDefaults() WorldConfig {
	if c.Size <= 0 {
		c.Size = 512
	}
	if c.TileSize <= 0 {
		c.TileSize = 16
	}
	return c
}

// BuildWorld runs the full dataset pipeline of paper §2.3 and §5.1:
// synthesize the MODIS bands, compute NDSI from them (Query 1), build the
// zoom-level pyramid, train the signature codebook on the pyramid's own
// tiles, and attach all four signatures to every tile.
func BuildWorld(cfg WorldConfig) (*Dataset, error) {
	cfg = cfg.withDefaults()
	ndsi, err := modis.BuildWorld(cfg.Seed, cfg.Size)
	if err != nil {
		return nil, fmt.Errorf("forecache: build world: %w", err)
	}
	sigCfg := sig.DefaultConfig("ndsi_avg")
	sigCfg.Seed = cfg.Seed
	raw := &Grid{Rows: cfg.Size, Cols: cfg.Size, Attrs: modis.Attrs, Data: ndsi}
	return BuildPyramid(raw, cfg.TileSize, sigCfg)
}

// BuildPyramid turns any raw grid into a signed tile pyramid: the route for
// non-MODIS datasets. sigCfg.Attr names the attribute the signatures
// describe, and the Dataset's Attr is set from it; 80 sampled tiles train
// the SIFT codebook. The Dataset does not retain raw: the tiles copy its
// cells out, so it can be collected once the caller drops it.
func BuildPyramid(raw *Grid, tileSize int, sigCfg SignatureConfig) (*Dataset, error) {
	pyr, err := tile.Build(raw, tileSize)
	if err != nil {
		return nil, fmt.Errorf("forecache: build pyramid: %w", err)
	}
	comp := sig.NewComputer(sigCfg)
	comp.TrainCodebook(pyr.SampleTiles(codebookTiles))
	pyr.ComputeMetadata(comp.Compute)
	return &Dataset{Pyramid: pyr, Signatures: comp, Attr: sigCfg.Attr}, nil
}

// SimulateStudy reproduces the paper's 18-user, 3-task study over this
// dataset, returning 54 ground-truth-labeled traces (§5.3).
func (d *Dataset) SimulateStudy(seed int64) []*trace.Trace {
	return study.NewSimulator(d.Pyramid, d.Attr).RunStudy(seed)
}

// Harness returns an experiment harness over the dataset and traces.
func (d *Dataset) Harness(traces []*trace.Trace) *eval.Harness {
	return &eval.Harness{Pyr: d.Pyramid, Attr: d.Attr, Traces: traces}
}

// MiddlewareConfig assembles a production middleware engine.
type MiddlewareConfig struct {
	// Latency overrides the hit/miss service times. Default: the paper's
	// measured 19.5 ms / 984 ms.
	Latency LatencyModel
	// Clock accounts simulated latency; nil disables accounting.
	Clock backend.Clock

	// AsyncPrefetch chooses only who runs the prefetch scheduler: with it,
	// every server session shares one whose background workers fetch off
	// the response path (submit-and-return, cross-session coalescing);
	// without it, each engine runs a private one itself before the response
	// returns, as NewMiddleware's always do, so the eval harness and paper
	// experiments stay deterministic. Only NewServer honors this.
	AsyncPrefetch bool
	// Push enables continuous push delivery (Khameleon-style): the server
	// mounts GET /stream — one long-lived response per session — and
	// every completed prefetch for a stream-attached session is written to
	// it as a framed tile payload with its coordinate, model attribution and
	// score, so the client holds the tile before ever asking for it (SSE;
	// with BinaryTiles, binary frames around the memoized FCT3 bodies for
	// a request that names the binary tile codec in Accept). The
	// scheduler's admission control grows a bandwidth-aware term: a queued
	// entry's utility decays by the extra queue-rank × per-session drain
	// delay (estimated bytes over the stream's measured throughput), so
	// slow-draining connections lose admission fights they would have won on
	// score alone. Sessions without an attached stream are untouched, and
	// with Push off the deployment is bit-for-bit the pull middleware.
	// Requires AsyncPrefetch (frames are produced by the shared scheduler);
	// construction fails otherwise. Only NewServer honors this.
	Push bool
	// Shards splits the async prefetch scheduler into N shards behind a
	// hash router keyed on session id, each with its own queues and
	// worker pool. Cross-session single-flight stays deployment-wide
	// (every shard fetches through one coalescer), so N shards wanting one
	// tile still cost one DBMS fetch; the server's session table and the
	// learned state (feedback, allocation, hotspot) are one per deployment
	// too. Default 1. Only NewServer with AsyncPrefetch honors this.
	Shards int
	// PrefetchWorkers sizes the AsyncPrefetch scheduler's worker pool (the
	// concurrent DBMS fetch budget), deployment-wide: with Shards > 1 each
	// shard runs ceil(PrefetchWorkers/Shards). Default 4.
	PrefetchWorkers int
	// AdaptiveK and FairShare are ignored: the scheduler's global
	// admission control is its one rule under load. The fields stay only
	// because the benchmark harness still sets them; the grouped config
	// (ROADMAP item 9) deletes them.
	AdaptiveK, FairShare bool
	// UtilityLearning closes the prediction-quality loop: every session's
	// cache attributes each prefetched tile's fate (consumed vs evicted
	// unconsumed) to the model, batch position and predicted phase that
	// prefetched it, a shared FeedbackCollector fits the position-utility
	// curve from those outcomes online (EWMA hit rate by position), and
	// the scheduler's admission control discounts queued entries by the
	// learned curve instead of the static 0.85^position guess. The curve
	// is exported under /stats and /metrics. Requires AsyncPrefetch.
	UtilityLearning bool
	// AdaptiveAllocation closes the budget-allocation loop: the same
	// per-(phase, model) consumption outcomes drive a shared
	// core.AdaptivePolicy that re-splits each session's prefetch budget k
	// per phase toward the model whose prefetches actually get consumed —
	// the registry's prior table (the paper's §5.4.3, extended with a
	// hotspot column when Hotspot is on) becomes the prior, every model
	// keeps a floor share for exploration, and shares move with hysteresis
	// so the split cannot thrash. The learned shares are exported under
	// /stats ("allocation") and /metrics (forecache_allocation_share).
	// Works with or without AsyncPrefetch (outcomes flow through the
	// feedback loop in both modes); independent of UtilityLearning.
	AdaptiveAllocation bool
	// Hotspot registers the third recommender: the online, training-free
	// cross-session hotspot model. One deployment-wide counter table (one
	// map under one mutex, at most one entry per pyramid tile) learns
	// which tiles the whole population recently consumed (per zoom level,
	// EWMA-decayed, fed from the same cache outcomes the feedback loops
	// drain) and every session's engine ranks candidates against it. The
	// prior allocation table grows a hotspot column (one slot per phase at
	// k >= 3), and with AdaptiveAllocation the per-phase split becomes
	// genuinely 3-way.
	Hotspot bool
	// Artifacts supplies an already-trained artifact bundle (Dataset.Train)
	// so construction performs no training at all: NewMiddleware and
	// NewServer reuse the bundle's shared recommender models and phase
	// classifier. The bundle must come from the same Dataset and a config
	// with the same model shape (Hotspot).
	Artifacts *Artifacts
	// MetricsEndpoint registers a dependency-free Prometheus text-format
	// GET /metrics endpoint on the server: scheduler counters, queue
	// saturation and per-session depths, aggregate cache hit rates, the
	// learned utility curve, and the adaptive allocation shares. With
	// Tracing the payload grows latency histograms for every pipeline stage.
	MetricsEndpoint bool
	// Tracing threads one obs.Pipeline through the whole deployment:
	// every /tile request gets a trace id (echoed as X-Trace-ID) with a
	// per-span breakdown (session resolution, cache lookup, backend fetch,
	// prefetch submission), the slowest retained traces are served under
	// GET /debug/traces, and /metrics (with MetricsEndpoint) exports
	// latency histograms for request outcomes, scheduler queue wait,
	// backend fetches and prefetch lead time. Only NewServer honors this;
	// NewMiddleware engines stay uninstrumented so the eval harness
	// measures the paper's numbers, not the telemetry's.
	Tracing bool
	// Logger receives the pipeline's structured request logs (one Debug
	// line per finished trace, carrying the trace id). nil logs nothing.
	// Only meaningful with Tracing.
	Logger *slog.Logger
	// StateDir enables warm restarts: the deployment's learned state — the
	// FeedbackCollector's position-utility curve and per-(phase, model)
	// allocation rates, the AdaptivePolicy's per-phase shares, the Hotspot
	// model's counter table (whichever of them the config enables) — is
	// snapshotted into this directory on an interval and at Close, and
	// restored by the next NewServer before the first session is built, so
	// a deploy or crash does not re-pay the warmup tax. Snapshots are
	// versioned, checksummed and written atomically; a damaged section
	// cold-starts only its own family. Empty disables persistence. Only
	// NewServer honors this.
	StateDir string
	// SnapshotInterval is the background snapshot cadence. 0 means the 30s
	// default; negative disables the interval ticker (a final snapshot is
	// still written at Close). Only meaningful with StateDir.
	SnapshotInterval time.Duration
	// SharedTiles > 0 wraps the server's DBMS in a cross-session
	// backend.SharedPool of that many tiles, so popular tiles are fetched
	// once and reused by every session, and sessions missing one tile at
	// the same moment share one fetch. Only NewServer honors this.
	SharedTiles int
	// BinaryTiles enables zero-recompute tile serving: a deployment-wide
	// encoded-payload cache memoizes each tile's wire bytes per (coord,
	// format, compression), /tile content-negotiates the binary codec
	// ("Accept: application/x-forecache-tile") and gzip compression, and
	// push frames embed the cached body (JSON on an SSE stream, FCT3 on a
	// binary one) instead of re-marshaling the tile per attached stream.
	// Clients that send no Accept header still get the same JSON and SSE
	// bytes; off (the default), every response is marshaled per request.
	// Only NewServer honors this.
	BinaryTiles bool
	// EncodedCacheBudget caps the encoded-payload cache in bytes. 0 means
	// the 64 MiB default. Only meaningful with BinaryTiles.
	EncodedCacheBudget int64
	// MaxSessions caps live server sessions; the least recently used
	// session is evicted past the cap. 0 = unlimited.
	MaxSessions int
	// SessionTTL evicts server sessions idle longer than this. 0 = never.
	SessionTTL time.Duration
}

// The model shape and training size every deployment runs: the paper's
// headline prefetch budget k, its best Markov order (SB uses SIFT
// signatures alone) and the SVM training cap. Prediction distance and
// history window are core.DefaultConfig's.
const (
	prefetchK             = 5
	abOrder               = 3
	maxClassifierRequests = 800
)

// The scheduler's admission constants, fixed the way Khameleon fixes its
// utility decay: the only values any deployment has run.
const (
	// globalQueueBudget caps queued prefetch entries across ALL sessions.
	// At saturation the scheduler sheds the lowest-utility queued entry
	// (utility = model confidence decayed by queue age and batch position)
	// to admit higher-utility newcomers, so one session's stale backlog
	// cannot crowd out another's fresh predictions.
	globalQueueBudget = 1024
	// decayHalfLife is the queue age at which a pending prefetch entry's
	// utility halves (Khameleon-style diminishing returns): predictions
	// made for a view the user has already left lose admission-control
	// fights against fresh ones.
	decayHalfLife = 2 * time.Second
)

func (c MiddlewareConfig) withDefaults() MiddlewareConfig {
	if c.Latency == (LatencyModel{}) {
		c.Latency = backend.DefaultLatency()
	}
	if c.PrefetchWorkers <= 0 {
		c.PrefetchWorkers = 4
	}
	return c
}

// Artifacts bundles the shareable output of one training pass:
// the registry-built model set (the trained Kneser–Ney Markov chain, the
// SB recommender, the hotspot counter table when the config registers
// one), the allocation table its prior columns compose to (so an engine's
// models and its policy can never diverge) and the fitted SVM phase
// classifier. Every model is shared: none holds session state, and SB
// reads each session's region of interest from that session's history.
// One bundle serves every session engine of a deployment — and, via
// MiddlewareConfig.Artifacts, several middleware constructions, which
// then perform no training at all.
type Artifacts struct {
	set   *recommend.Set
	prior *core.RegistryPolicy
	cls   *phase.Classifier
}

// Models returns the bundle's recommender names in registry order.
func (a *Artifacts) Models() []string { return a.set.Names() }

// trainHook, when non-nil, is invoked with the artifact name (the Markov
// model's name, "classifier") each time an artifact is actually trained.
// It is a test seam: the server tests use it to prove that session
// creation — and construction from a supplied Artifacts bundle — performs
// zero training (see TestServerTrainsModelsOnce).
var trainHook func(artifact string)

// registry composes the deployment's recommender registry from the config:
// the paper's AB+SB pair, plus the online hotspot column when cfg.Hotspot
// is set. This is the single site deciding which recommenders a deployment
// runs; everything downstream (model sets, the prior allocation table, the
// adaptive split, /stats and /metrics labels) follows the registry.
func (d *Dataset) registry(cfg MiddlewareConfig) (*recommend.Registry, error) {
	var hs *recommend.HotspotConfig
	if cfg.Hotspot {
		hs = &recommend.HotspotConfig{}
	}
	return recommend.NewRegistry(recommend.DefaultSpecs(abOrder, []string{sig.NameSIFT}, hs)...)
}

// Train runs the deployment's one training pass over the study traces:
// every trace-trained registry model (the Markov chain) plus the phase
// classifier. The returned bundle can be passed to any number of
// NewMiddleware / NewServer calls via MiddlewareConfig.Artifacts, which
// then skip training entirely.
func (d *Dataset) Train(train []*trace.Trace, cfg MiddlewareConfig) (*Artifacts, error) {
	reg, err := d.registry(cfg)
	if err != nil {
		return nil, fmt.Errorf("forecache: %w", err)
	}
	set, err := reg.Build(recommend.Env{Tiles: d.Pyramid, Traces: train, TrainHook: trainHook})
	if err != nil {
		return nil, fmt.Errorf("forecache: %w", err)
	}
	prior, err := core.NewRegistryPolicy(set.Columns())
	if err != nil {
		return nil, fmt.Errorf("forecache: %w", err)
	}
	reqs := phase.Requests(train)
	if len(reqs) > maxClassifierRequests {
		reqs = reqs[:maxClassifierRequests]
	}
	if trainHook != nil {
		trainHook("classifier")
	}
	cls, err := phase.Train(reqs, phase.TrainConfig{})
	if err != nil {
		return nil, fmt.Errorf("forecache: train phase classifier: %w", err)
	}
	return &Artifacts{set: set, prior: prior, cls: cls}, nil
}

// artifacts returns the bundle the construction should use: the supplied
// one (no training, after checking it carries exactly the models the
// config asks for — silently serving a different model set than the
// operator configured would be worse than retraining) or a fresh training
// pass over the traces.
func (d *Dataset) artifacts(train []*trace.Trace, cfg MiddlewareConfig) (*Artifacts, error) {
	if cfg.Artifacts == nil {
		return d.Train(train, cfg)
	}
	reg, err := d.registry(cfg)
	if err != nil {
		return nil, fmt.Errorf("forecache: %w", err)
	}
	want := make([]string, 0, len(reg.Specs()))
	for _, s := range reg.Specs() {
		want = append(want, s.Name)
	}
	got := cfg.Artifacts.Models()
	if !slices.Equal(got, want) {
		return nil, fmt.Errorf("forecache: supplied artifacts carry models %v but the config (Hotspot) expects %v", got, want)
	}
	return cfg.Artifacts, nil
}

// NewMiddleware builds the paper's full two-level middleware for one
// session: phase classifier and Markov chain trained on the given traces
// (or reused from cfg.Artifacts, in which case no training happens),
// SIFT-based SB model over the dataset's signatures, the registry's
// allocation table, cache manager and DBMS adapter. The engine runs its
// private prefetch scheduler itself before each request returns (the
// deterministic mode the eval harness replays); background workers are a
// NewServer concern.
func (d *Dataset) NewMiddleware(train []*trace.Trace, cfg MiddlewareConfig) (*core.Engine, error) {
	cfg = cfg.withDefaults()
	db := backend.NewDBMS(d.Pyramid, cfg.Latency, cfg.Clock)
	arts, err := d.artifacts(train, cfg)
	if err != nil {
		return nil, err
	}
	ecfg := core.Config{K: prefetchK}
	if hs := arts.set.Hotspot(); hs != nil {
		ecfg.Consumption = hs
	}
	return core.NewEngine(db, arts.cls, arts.prior, arts.set.Models(), ecfg)
}

// NewServer wraps the dataset in an HTTP middleware server; each session
// gets its own engine, but all sessions share one DBMS adapter — optionally
// behind a cross-session tile pool (SharedTiles) and an asynchronous
// prefetch scheduler (AsyncPrefetch), the Figure 5 deployment grown to
// multi-user scale. Call Close on the returned server to stop the
// scheduler's workers.
//
// The recommender registry's models (the Markov chain, SB, the hotspot
// counter table) and the phase classifier are trained/built
// exactly once, here — or reused from cfg.Artifacts — and shared by every
// session engine: creating the 2nd..Nth session performs no training and
// is O(1). Construction returns an error for invalid tuning values or a
// failed training pass. The feedback loops, push, the encoded cache,
// /metrics and tracing are each described on their MiddlewareConfig field.
func (d *Dataset) NewServer(train []*trace.Trace, cfg MiddlewareConfig) (*server.Server, error) {
	srv, _, err := d.newServer(train, cfg)
	return srv, err
}

// newServer is NewServer that also returns the deployment's shared
// scheduler (nil without AsyncPrefetch), which tests drain.
func (d *Dataset) newServer(train []*trace.Trace, cfg MiddlewareConfig) (*server.Server, *prefetch.Scheduler, error) {
	cfg = cfg.withDefaults()
	meta := server.Meta{
		Levels:   d.Pyramid.NumLevels(),
		TileSize: d.Pyramid.TileSize(),
		Attrs:    d.Pyramid.Attrs(),
	}
	db := backend.NewDBMS(d.Pyramid, cfg.Latency, cfg.Clock)
	var store backend.Store = db
	if cfg.SharedTiles > 0 {
		store = backend.NewSharedPool(db, cfg.SharedTiles)
	}
	arts, err := d.artifacts(train, cfg)
	if err != nil {
		return nil, nil, err
	}
	// The feedback collector exists whenever some loop consumes outcomes:
	// UtilityLearning prices scheduler admission with it (async only),
	// AdaptiveAllocation re-splits the budget with it (either mode).
	var fc *prefetch.FeedbackCollector
	if (cfg.UtilityLearning && cfg.AsyncPrefetch) || cfg.AdaptiveAllocation {
		fc = prefetch.NewFeedbackCollector(prefetchK)
	}
	// Every session engine shares one allocation policy: the registry's
	// prior table, or — with AdaptiveAllocation — one AdaptivePolicy over
	// it, so the learned per-phase split reflects the whole deployment's
	// traffic and the server can export it once (/stats, /metrics). Models
	// and prior both come from the registry set, so a third registered
	// recommender makes the split 3-way with no further wiring. Built
	// before the scheduler so no worker pool leaks on a construction error.
	var policy core.AllocationPolicy = arts.prior
	var adaptive *core.AdaptivePolicy
	if cfg.AdaptiveAllocation {
		adaptive, err = core.NewAdaptivePolicy(arts.prior, arts.set.Names(), fc, core.AdaptiveConfig{})
		if err != nil {
			return nil, nil, fmt.Errorf("forecache: adaptive allocation: %w", err)
		}
		policy = adaptive
	}
	// The observability pipeline is one shared instance: the scheduler
	// feeds its queue-wait and backend-fetch histograms, every session
	// engine feeds cache lead times and span timings, and the server
	// serves the result (/metrics histograms, /debug/traces).
	var pipe *obs.Pipeline
	if cfg.Tracing {
		pipe = obs.NewPipeline(obs.Config{Logger: cfg.Logger})
	}
	// The encoded-payload cache is deployment-wide: the /tile and /stream
	// handlers share it, so the pull and push paths serve the same memoized
	// bytes and a tile is encoded once however it leaves. The
	// encode-duration hook is nil-receiver safe when untraced.
	var encCache *tile.EncodedCache
	if cfg.BinaryTiles {
		encCache = tile.NewEncodedCache(cfg.EncodedCacheBudget, pipe.ObserveTileEncode)
	}
	if cfg.Push && !cfg.AsyncPrefetch {
		return nil, nil, fmt.Errorf("forecache: Push requires AsyncPrefetch (push frames are produced by the shared scheduler)")
	}
	var sched *prefetch.Scheduler
	var streams *push.Registry
	if cfg.AsyncPrefetch {
		pcfg := prefetch.Config{
			Shards:        cfg.Shards,
			Workers:       cfg.PrefetchWorkers,
			GlobalQueue:   globalQueueBudget,
			DecayHalfLife: decayHalfLife,
			Obs:           pipe,
		}
		if cfg.UtilityLearning {
			pcfg.Utility = fc
		}
		// The server opens each session's push handle here and makes it the
		// push sink of the session's scheduler handle: frame production and
		// the /stream transport share one session object.
		if cfg.Push {
			streams = push.NewRegistry(push.Config{Obs: pipe})
		}
		sched = prefetch.NewScheduler(store, pcfg)
	}
	hotspot := arts.set.Hotspot()
	// Warm restart: restore the learned-state families from the snapshot
	// directory BEFORE the first session engine is built, then start the
	// interval ticker. The store is handed to the server so Close writes
	// the final snapshot and /stats + /metrics report snapshot health.
	var snapshots *persist.Store
	if cfg.StateDir != "" {
		var families []persist.Family
		if fc != nil {
			families = append(families, persist.Family{
				Name: "feedback", Version: prefetch.FeedbackStateVersion,
				Export: fc.ExportState, Import: fc.ImportState,
			})
		}
		if adaptive != nil {
			families = append(families, persist.Family{
				Name: "allocation", Version: core.AllocationStateVersion,
				Export: adaptive.ExportState, Import: adaptive.ImportState,
			})
		}
		if hotspot != nil {
			families = append(families, persist.Family{
				Name: "hotspot", Version: recommend.HotspotStateVersion,
				Export: hotspot.ExportState, Import: hotspot.ImportState,
			})
		}
		if len(families) > 0 {
			snapshots, err = persist.NewStore(persist.Config{
				Dir:      cfg.StateDir,
				Interval: cfg.SnapshotInterval,
				Logger:   cfg.Logger,
			}, families...)
			if err != nil {
				if sched != nil {
					sched.Close() // don't leak the worker pool on a construction error
				}
				return nil, nil, fmt.Errorf("forecache: %w", err)
			}
			snapshots.Restore()
			snapshots.Start()
		}
	}
	// What every session engine shares. The two observer fields are
	// interfaces, so they are set only from non-nil pointers.
	ecfg := core.Config{K: prefetchK, Obs: pipe}
	if fc != nil {
		ecfg.Feedback = fc
	}
	if hotspot != nil {
		ecfg.Consumption = hotspot
	}
	// Only the cheap per-session state is fresh per engine: the cache
	// manager and the history window, which carries the session's region
	// of interest, plus the prefetch handle the server opened for the
	// session. Every engine ranks with the same shared models.
	factory := func(q core.Submitter) (*core.Engine, error) {
		ecfg := ecfg // this session's copy
		ecfg.Scheduler = q
		return core.NewEngine(store, arts.cls, policy, arts.set.Models(), ecfg)
	}
	return server.New(meta, factory, server.Config{
		MaxSessions: cfg.MaxSessions,
		SessionTTL:  cfg.SessionTTL,
		Scheduler:   sched,
		Allocation:  adaptive,
		Push:        streams,
		Encoded:     encCache,
		Obs:         pipe,
		Persist:     snapshots,
		Metrics:     cfg.MetricsEndpoint,
	}), sched, nil
}
