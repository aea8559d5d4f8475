// Package forecache is a from-scratch Go reproduction of ForeCache
// (Battle, Chang, Stonebraker: "Dynamic Prefetching of Data Tiles for
// Interactive Visualization", SIGMOD 2016): a middleware layer between a
// tile-based visualization client and an array DBMS that prefetches data
// tiles with a two-level prediction engine.
//
// The package is a facade over the building blocks in internal/:
//
//   - a synthetic MODIS-like satellite dataset and the paper's NDSI
//     computation, Query 1, as one function (internal/modis);
//   - the tile pyramid data model (internal/tile), built from a raw grid
//     by the (2, 2) averaging regrid that makes each coarser zoom level,
//     and tile signatures including SIFT bag-of-visual-words
//     (internal/sig); BuildPyramid takes any Grid and a SignatureConfig,
//     the route for a dataset other than MODIS;
//   - the two-level prediction engine (internal/core) over an SVM phase
//     classifier (internal/svm, internal/phase) and the recommenders
//     (internal/recommend), among them a Kneser–Ney Markov chain. The
//     recommenders are registered through a registry (recommend.Spec /
//     recommend.Registry): each spec owns its model's construction, its
//     training requirement (trace-trained vs online) and its column of
//     the default per-phase allocation table, so the facade, the server
//     and the eval harness all build their model sets — and the
//     allocation policy (core.RegistryPolicy) — from registered specs
//     instead of hard-coded wiring. Three recommenders ship registered:
//     the Actions-Based Markov model (trace-trained, shared by every
//     session, each score computed once per input), the Signature-Based
//     visual-similarity model (online, fresh per session) and the
//     cross-session Hotspot model
//     (online, EWMA-decayed per-zoom-level consumption frequencies in
//     one map under one mutex, at most one entry per pyramid tile,
//     seeded from the training traces and fed live from the cache
//     outcome stream — enabled with MiddlewareConfig.Hotspot, always
//     on in serve);
//   - the middleware cache (internal/cache), the latency-modeling DBMS
//     adapter (internal/backend) and the HTTP boundary (internal/server,
//     internal/client);
//   - the asynchronous prefetch pipeline (internal/prefetch): a server-wide
//     scheduler that decouples prediction from DBMS fetching — engines
//     submit ranked candidate batches and return immediately, a bounded
//     worker pool fetches them in confidence order with per-session
//     fairness, duplicate requests across sessions coalesce into one DBMS
//     fetch (single-flight: within a shard at dispatch, and across shards
//     through an always-on coalescer), and a session's newer batch cancels
//     its stale queued entries. The scheduler is adaptive and closed-loop:
//     queued entries lose utility as they age (halving every 2 s) and by
//     batch position, and a global queue budget (1024 entries) sheds the
//     lowest-utility entries across all sessions at saturation, so a
//     flooding session loses its own low-ranked tail first while the
//     engines always submit k tiles. With UtilityLearning the cache
//     attributes every prefetched tile's fate (consumed vs evicted
//     unconsumed) to the model, batch position and predicted analysis
//     phase that prefetched it, and a shared FeedbackCollector fits the
//     position-utility curve online from those outcomes
//     (Khameleon-style), replacing the static 0.85 position decay in
//     admission control. With AdaptiveAllocation the same outcomes drive
//     the allocation strategy itself: a shared core.AdaptivePolicy
//     re-splits each request's prefetch budget k per phase toward the
//     model whose prefetches actually get consumed — the registry's
//     prior table (the paper's §5.4.3, extended with a hotspot column
//     when the hotspot model is registered) is the prior until a phase
//     warms up, every model keeps a floor share for exploration (the
//     constants allocFloor, allocWarmup and allocMaxStep in internal/core
//     fix floor, warmup and step bound), hysteresis bounds how fast shares
//     move, and stale evidence decays with a half-life so a dataset shift
//     re-learns the split instead of being pinned by history. With three registered models the learned split
//     is genuinely 3-way (the learned shares appear under /stats and as
//     forecache_allocation_share{phase,model} gauges). NewServer wires
//     one scheduler (plus an optional cross-session tile pool and bounded
//     session table) across every session and trains the phase classifier
//     and Markov chain exactly once, sharing the trained artifacts with
//     every session engine. Every engine prefetches through one executor,
//     a scheduler shard delivering into its cache; NewMiddleware's runs
//     its own, with no workers, after each request (the paper's think-time
//     model), so the experiments stay deterministic. MetricsEndpoint
//     exposes the whole loop — queue/shed/coalesce counters, queue
//     saturation and depths, aggregate cache hit rates, the learned
//     curve — as dependency-free Prometheus text under GET /metrics. The
//     server keeps one session table behind one lock; MiddlewareConfig.Shards
//     (serve -shards) splits only the scheduler, into N queue-and-worker
//     shards behind a hash router keyed on session id (internal/shard:
//     mix(FNV-1a(id)) % N — the shard count is fixed for a process's
//     life), while single-flight fetch deduplication and all learned
//     state stay deployment-wide and /metrics renders the per-shard
//     series (forecache_prefetch_shard_*{shard="0"}) from the same pass
//     as their totals; Shards=1, the default, is the same
//     prefetch.Scheduler with one shard. A server session is one object,
//     its engine plus its own prefetch-queue and push handles, which
//     eviction closes without touching a newer session of the same id;
//   - push-based continuous delivery (internal/push): with
//     MiddlewareConfig.Push (always on in serve) the server mounts GET /stream —
//     one long-lived response per session, SSE or (negotiated as on
//     /tile, with BinaryTiles) binary frames around the memoized FCT3
//     bodies — and every completed prefetch for a stream-attached
//     session is written down it, unless its client still holds the
//     tile, as a framed tile payload carrying its
//     coordinate, model attribution and score, with heartbeats while
//     idle and teardown on session eviction
//     and Close (Khameleon-style: round-trip latency moves from
//     paid-per-pan to hidden-behind-the-stream). The worker that fetched
//     a tile delivers it to the cache, then the push queue; the stream
//     handler encodes a frame only when it writes it; the registry
//     counts pushes. Each session's push
//     handle measures its stream's drain rate from real writes and the scheduler's
//     admission control ages queued entries by queue-rank × drain delay,
//     so a slow connection's backlog loses shed fights it would have won
//     on score alone. The Go client (client.Attach) keeps a bounded
//     slot buffer of undecoded frames — newest supersedes; a request
//     decodes and returns its slot's tile (TileInfo.Streamed) and only
//     revalidates it: If-None-Match on the tile's ETag under the stream's
//     X-Tile-Epoch, answered 304 with no body — and auto-reattaches
//     after a drop, the server backfilling. Stream
//     telemetry (open streams, pushed/backfilled/dropped frames, frame
//     bytes, push-to-consume lead time, per-session drain rates) rides /stats
//     and /metrics as forecache_push_* series. Push off is the pull
//     deployment bit-for-bit;
//   - zero-copy tile serving (internal/tile codec + encoded cache): with
//     MiddlewareConfig.BinaryTiles (always on in serve) every tile
//     response body — the streamed-JSON rendering and the versioned,
//     CRC-checked binary codec (Accept: application/x-forecache-tile),
//     each optionally gzip-compressed — is memoized in one
//     deployment-wide byte-budgeted LRU (EncodedCacheBudget) with
//     single-flight encoding (internal/memo's Cache, as are the tile pool
//     behind SharedTiles and the prefetch coalescer), shared by the /tile
//     and /stream handlers, so a tile is encoded at most once per format
//     however it leaves the server. The Go client opts in with
//     NegotiateBinary (/tile and /stream alike); the default JSON and SSE
//     wire formats are byte-for-byte unchanged, knob off or on. JSON
//     numbers are written by Schubfach and read by Clinger's fast path or
//     Eisel–Lemire, both exact over one generated power-of-ten table, with
//     strconv for what neither settles. JSON is decoded by tile.DecodeJSON
//     (one pass over the canonical rendering, encoding/json for anything
//     else), and both codecs validate a tile's shape on decode. Cache
//     traffic and encode latencies ride /metrics as forecache_tile_*;
//   - the observability layer (internal/obs): with
//     MiddlewareConfig.Tracing every /tile request is traced end to end
//     (trace id echoed as X-Trace-ID, per-span breakdown across session
//     resolution, cache lookup, backend fetch, prefetch submission and
//     the response write), the slowest traces are retained in a bounded
//     ring (the 256 newest) behind GET /debug/traces, and /metrics
//     grows lock-free latency histograms for request outcomes
//     (hit/miss/shed), scheduler queue wait, backend fetches and
//     prefetch lead time. MiddlewareConfig.Logger receives one
//     structured log line per finished trace; serve -pprof mounts
//     net/http/pprof under GET /debug/pprof/ in front of it. The same
//     package's strict exposition parser backs the `forecache scrape`
//     CLI subcommand, which CI points at a live server;
//   - crash-safe warm restarts (internal/persist): with
//     MiddlewareConfig.StateDir (serve -state-dir) the deployment's
//     learned state — the position-utility curve, the per-phase
//     allocation shares and the hotspot counter table — is snapshotted
//     to one versioned, per-section-checksummed file off the request
//     path (SnapshotInterval, default 30s; always again on Close, which
//     serve's SIGINT/SIGTERM handler now reaches) and restored in
//     NewServer before the first session, so a deploy or crash no
//     longer pays the full warmup tax. Writes are atomic (temp file +
//     fsync + rename), a damaged or version-skewed section cold-starts
//     only its own family, and snapshot health rides /stats and
//     /metrics (forecache_snapshot_age_seconds and friends);
//   - a user-study simulator (internal/study), which writes each request's
//     ground-truth analysis phase into its traces (the classifier's
//     training labels), and the experiment harness reproducing every table
//     and figure of the paper (internal/eval). The harness assembles every
//     multi-model engine through the same registry path deployments use;
//     it owns what only the comparisons need — the trace-trained Hotspot
//     baseline of Doshi et al. and the allocation ablation (the §4.4
//     original table), expressed as a prior-column override on the AB
//     spec rather than as a policy type.
//
// Quickstart:
//
//	ds, _ := forecache.BuildWorld(forecache.WorldConfig{Seed: 1, Size: 512, TileSize: 16})
//	traces := ds.SimulateStudy(7)
//	mw, _ := ds.NewMiddleware(traces, forecache.MiddlewareConfig{})
//	resp, _ := mw.Request(forecache.Coord{})            // root tile: a miss
//	resp, _ = mw.Request(forecache.Coord{Level: 1})     // often prefetched
//
// See example_test.go for runnable examples and cmd/forecache for the CLI
// that regenerates the paper's experiments (TestBenchAllGolden there holds
// their output to committed bytes) and serves one deployment shape, every
// feature above on, with flags that only size or place it. scripts/live.sh drives a built binary
// over real HTTP; scripts/reachability.sh lists what no entry point runs.
package forecache
