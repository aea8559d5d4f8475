// Command forecache is the command-line front end of the ForeCache
// reproduction. Subcommands:
//
//	tracegen  simulate the 18-user x 3-task study and save the traces
//	serve     run the HTTP middleware over a freshly built world
//	explore   walk a move script through the middleware and print tiles
//	bench     regenerate the paper's tables and figures (see -list)
//	scrape    fetch a /metrics URL and strictly validate the exposition
//
// Every subcommand is deterministic for a fixed -seed.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"forecache"
	"forecache/internal/eval"
	"forecache/internal/obs"
	"forecache/internal/render"
	"forecache/internal/trace"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "tracegen":
		err = cmdTracegen(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "explore":
		err = cmdExplore(os.Args[2:])
	case "render":
		err = cmdRender(os.Args[2:])
	case "bench":
		err = cmdBench(os.Stdout, os.Args[2:])
	case "scrape":
		err = cmdScrape(os.Args[2:])
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: forecache <subcommand> [flags]

subcommands:
  tracegen  -seed -size -tile -out        simulate the study, save traces
  serve     -seed -size -tile [flags: serve -h]
                                          run the HTTP middleware
                                          (SIGINT/SIGTERM shut down
                                          gracefully: in-flight requests
                                          drain and learned state is
                                          snapshotted to -state-dir)
  explore   -seed -size -tile -moves     walk a move script, print tiles
  render    -seed -size -tile -level -out render a zoom level to PNG
  bench     -seed -size -tile [-list] [names...|all]  run experiments
  scrape    -url                         fetch /metrics, validate strictly`)
}

// worldFlags are the dataset knobs shared by all subcommands.
type worldFlags struct {
	seed int64
	size int
	tile int
}

func addWorldFlags(fs *flag.FlagSet) *worldFlags {
	wf := &worldFlags{}
	fs.Int64Var(&wf.seed, "seed", 42, "world and study seed")
	fs.IntVar(&wf.size, "size", 512, "raw grid cells per side")
	fs.IntVar(&wf.tile, "tile", 16, "tile cells per side")
	return wf
}

func (wf *worldFlags) build() (*forecache.Dataset, error) {
	fmt.Fprintf(os.Stderr, "building world: seed=%d size=%d tile=%d...\n", wf.seed, wf.size, wf.tile)
	start := time.Now()
	ds, err := forecache.BuildWorld(forecache.WorldConfig{
		Seed: wf.seed, Size: wf.size, TileSize: wf.tile,
	})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "world ready: %d levels, %d tiles, %.1f MB of tiles (%s)\n",
		ds.Pyramid.NumLevels(), ds.Pyramid.NumTiles(),
		float64(ds.Pyramid.MemBytes())/1e6, time.Since(start).Round(time.Millisecond))
	return ds, nil
}

func cmdTracegen(args []string) error {
	fs := flag.NewFlagSet("tracegen", flag.ExitOnError)
	wf := addWorldFlags(fs)
	out := fs.String("out", "traces", "output directory for trace JSON files")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ds, err := wf.build()
	if err != nil {
		return err
	}
	traces := ds.SimulateStudy(wf.seed)
	if err := trace.SaveDir(*out, traces); err != nil {
		return err
	}
	total := 0
	for _, t := range traces {
		total += len(t.Requests)
	}
	fmt.Printf("%d traces (%d requests) saved under %s\n", len(traces), total, *out)
	return nil
}

// serveFlags are serve's own knobs: the listen address, the log level and
// the deployment config the remaining flags fill in place.
type serveFlags struct {
	addr     string
	logLevel string
	cfg      forecache.MiddlewareConfig
}

func addServeFlags(fs *flag.FlagSet) *serveFlags {
	sf := &serveFlags{}
	c := &sf.cfg
	fs.StringVar(&sf.addr, "addr", ":8080", "listen address")
	fs.IntVar(&c.K, "k", 5, "prefetch budget in tiles")
	fs.BoolVar(&c.AsyncPrefetch, "async", true, "prefetch through the shared asynchronous scheduler, with its feedback loops on: adaptive K under backpressure, scoped per session by fair share, and the learned position-utility curve")
	fs.BoolVar(&c.Push, "push", false, "continuous push delivery: stream completed prefetches to attached sessions over GET /stream and price scheduler admission by per-session drain rate (requires -async)")
	fs.IntVar(&c.Shards, "shards", 1, "independent serving-tier shards behind a hash router keyed on session id (session tables, sweeps and scheduler queues go per-shard; single-flight and learned state stay deployment-wide)")
	fs.IntVar(&c.PrefetchWorkers, "prefetch-workers", 4, "scheduler worker pool size (concurrent DBMS fetches)")
	fs.BoolVar(&c.AdaptiveAllocation, "adaptive-allocation", true, "re-split the per-phase prefetch budget toward the model whose prefetches get consumed (static table as prior)")
	fs.BoolVar(&c.Hotspot, "hotspot", true, "register the online cross-session hotspot recommender as a third model (one shared, decaying popularity table; makes -adaptive-allocation a 3-way split)")
	fs.BoolVar(&c.MetricsEndpoint, "metrics", true, "expose Prometheus text-format telemetry under GET /metrics")
	fs.BoolVar(&c.Tracing, "tracing", true, "trace every request (X-Trace-ID, GET /debug/traces) and export per-stage latency histograms under /metrics")
	fs.BoolVar(&c.Pprof, "pprof", false, "expose Go's net/http/pprof profiling handlers under GET /debug/pprof/")
	fs.StringVar(&sf.logLevel, "log-level", "info", "structured request log level: debug, info, warn or error (debug logs every finished trace)")
	fs.StringVar(&c.StateDir, "state-dir", "", "directory for crash-safe snapshots of learned state (utility curve, allocation shares, hotspot table); restored at startup, written on -snapshot-interval and at shutdown (empty disables)")
	fs.DurationVar(&c.SnapshotInterval, "snapshot-interval", 0, "background snapshot cadence (0 = 30s default; negative disables the ticker, shutdown still snapshots)")
	fs.BoolVar(&c.BinaryTiles, "binary-tiles", false, "zero-recompute tile serving: memoize encoded payloads deployment-wide, content-negotiate the binary codec (Accept: application/x-forecache-tile) and gzip on /tile, and push cached bytes down streams; clients without the Accept header still get byte-identical JSON")
	fs.Int64Var(&c.EncodedCacheBudget, "encoded-cache-budget", 0, "encoded tile payload cache budget in bytes (0 = 64 MiB default; only meaningful with -binary-tiles)")
	fs.IntVar(&c.SharedTiles, "shared-tiles", 512, "cross-session shared tile pool capacity (0 disables)")
	fs.IntVar(&c.MaxSessions, "max-sessions", 1024, "live session cap, LRU-evicted past it (0 = unlimited)")
	fs.DurationVar(&c.SessionTTL, "session-ttl", 30*time.Minute, "evict sessions idle this long (0 = never)")
	return sf
}

func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	wf := addWorldFlags(fs)
	sf := addServeFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	logger, err := obs.NewLogger(os.Stderr, sf.logLevel)
	if err != nil {
		return err
	}
	cfg := sf.cfg
	cfg.Logger = logger
	// The scheduler's three feedback loops have only ever helped: they run
	// whenever the scheduler does.
	cfg.AdaptiveK, cfg.FairShare, cfg.UtilityLearning = cfg.AsyncPrefetch, cfg.AsyncPrefetch, cfg.AsyncPrefetch
	ds, err := wf.build()
	if err != nil {
		return err
	}
	srv, err := ds.NewServer(ds.SimulateStudy(wf.seed), cfg)
	if err != nil {
		return err
	}
	defer srv.Close()
	mode := "inline prefetch"
	if cfg.AsyncPrefetch {
		mode = fmt.Sprintf("async prefetch: %d workers, adaptive allocation %v, hotspot %v",
			cfg.PrefetchWorkers, cfg.AdaptiveAllocation, cfg.Hotspot)
	}
	if cfg.Shards > 1 {
		mode += fmt.Sprintf("; %d shards", cfg.Shards)
	}
	if cfg.Push {
		mode += "; push delivery"
	}
	if cfg.BinaryTiles {
		mode += "; binary tile codec + encoded-payload cache"
	}
	endpoints := "GET /meta, /tile?level=&y=&x=, /stats"
	if cfg.Push {
		endpoints += ", /stream"
	}
	if cfg.MetricsEndpoint {
		endpoints += ", /metrics"
	}
	if cfg.Tracing {
		endpoints += ", /debug/traces"
	}
	if cfg.Pprof {
		endpoints += ", /debug/pprof/"
	}

	// Listen first so a bad address still fails fast with a non-zero exit,
	// then serve until the process is asked to stop. http.ListenAndServe
	// would block until the process is killed, which meant the
	// `defer srv.Close()` above NEVER ran: no graceful shutdown, no final
	// state snapshot. Instead, SIGINT/SIGTERM cancel the signal context,
	// in-flight requests drain through http.Server.Shutdown, and returning
	// normally lets the deferred srv.Close tear down the scheduler and
	// write the final snapshot.
	ln, err := net.Listen("tcp", sf.addr)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Printf("serving tiles on %s (%s; %s; POST /reset)\n", sf.addr, mode, endpoints)
	httpSrv := newHTTPServer(srv)
	if reg := srv.Push(); reg != nil {
		// Shutdown waits for in-flight handlers, and every attached push
		// stream IS an in-flight handler that would otherwise outlive the
		// drain window. Closing the registry when the drain begins ends each
		// stream's handler promptly, so SIGTERM with streams open still
		// drains and exits 0. (Registry Close is idempotent; the deferred
		// srv.Close repeats it harmlessly.)
		httpSrv.RegisterOnShutdown(reg.Close)
	}
	return serveUntilDone(ctx, httpSrv, ln)
}

// newHTTPServer wraps the middleware in an http.Server with the serve
// deployment's protective timeouts. ReadHeaderTimeout bounds how long a
// client may dribble out request headers (the slowloris hold-open that a
// zero-value server tolerates forever); IdleTimeout reaps keep-alive
// connections parked between requests. There is deliberately NO global
// WriteTimeout: it is an absolute deadline on every response, which would
// kill each long-lived /stream push response after the interval no matter
// how healthy — the stream handler instead arms a fresh per-write deadline
// via http.ResponseController, so only a peer that stops reading is
// dropped.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}

// serveUntilDone serves httpSrv on ln until the listener fails or ctx is
// cancelled (the signal path). On cancellation it drains in-flight
// requests via Shutdown — bounded, so a wedged client cannot hold the
// process open forever — and reports a clean nil; http.ErrServerClosed is
// likewise a clean exit, while real listener errors stay non-nil.
func serveUntilDone(ctx context.Context, httpSrv *http.Server, ln net.Listener) error {
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	select {
	case err := <-errc:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	case <-ctx.Done():
		fmt.Fprintln(os.Stderr, "signal received: draining connections, snapshotting state...")
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(sctx); err != nil {
			httpSrv.Close()
			return fmt.Errorf("shutdown: %w", err)
		}
		return nil
	}
}

// cmdScrape fetches a Prometheus text-format endpoint and runs the same
// strict exposition validator the unit tests use (obs.ParsePromText). CI
// scrapes a live `serve` process with it, so a payload a real Prometheus
// scraper would reject fails the build, not the dashboard.
func cmdScrape(args []string) error {
	fs := flag.NewFlagSet("scrape", flag.ExitOnError)
	url := fs.String("url", "http://localhost:8080/metrics", "metrics endpoint to fetch and validate")
	if err := fs.Parse(args); err != nil {
		return err
	}
	resp, err := http.Get(*url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("scrape %s: status %s", *url, resp.Status)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return err
	}
	samples, err := obs.ParsePromText(string(body))
	if err != nil {
		return fmt.Errorf("scrape %s: invalid exposition: %w", *url, err)
	}
	histograms := 0
	for key := range samples {
		if strings.Contains(key, "_bucket{") {
			histograms++
		}
	}
	fmt.Printf("%s: %d samples valid (%d histogram buckets)\n", *url, len(samples), histograms)
	return nil
}

func cmdExplore(args []string) error {
	fs := flag.NewFlagSet("explore", flag.ExitOnError)
	wf := addWorldFlags(fs)
	moves := fs.String("moves", "in-nw,in-se,right,down,out", "comma-separated move script")
	k := fs.Int("k", 5, "prefetch budget in tiles")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ds, err := wf.build()
	if err != nil {
		return err
	}
	traces := ds.SimulateStudy(wf.seed)
	mw, err := ds.NewMiddleware(traces, forecache.MiddlewareConfig{K: *k})
	if err != nil {
		return err
	}
	cur := forecache.Coord{}
	resp, err := mw.Request(cur)
	if err != nil {
		return err
	}
	printTile(ds, resp, cur)
	for _, name := range strings.Split(*moves, ",") {
		mv, err := trace.ParseMove(strings.TrimSpace(name))
		if err != nil {
			return err
		}
		next := trace.Apply(cur, mv)
		if !ds.Pyramid.Contains(next) {
			fmt.Printf("move %s would leave the dataset; skipping\n", mv)
			continue
		}
		cur = next
		resp, err = mw.Request(cur)
		if err != nil {
			return err
		}
		fmt.Printf("\nmove: %s\n", mv)
		printTile(ds, resp, cur)
	}
	st := mw.CacheStats()
	fmt.Printf("\nsession stats: %d hits, %d misses, hit rate %.0f%%\n",
		st.Hits, st.Misses, st.HitRate()*100)
	return nil
}

// printTile renders a tile as an ASCII heatmap (NDSI: '#' = snow, '.' =
// bare, '~' = ocean/empty).
func printTile(ds *forecache.Dataset, resp *forecache.Response, c forecache.Coord) {
	status := "MISS"
	if resp.Hit {
		status = "HIT"
	}
	fmt.Printf("tile %v  [%s, %s, phase %s]\n", c, status,
		resp.Latency.Round(time.Millisecond), resp.Phase)
	grid, err := resp.Tile.Grid(ds.Attr)
	if err != nil {
		fmt.Println(" ", err)
		return
	}
	size := resp.Tile.Size
	for y := 0; y < size; y += 1 {
		var b strings.Builder
		for x := 0; x < size; x++ {
			v := grid[y*size+x]
			switch {
			case math.IsNaN(v):
				b.WriteByte('~')
			case v > 0.4:
				b.WriteByte('#')
			case v > 0:
				b.WriteByte('+')
			case v > -0.2:
				b.WriteByte('.')
			default:
				b.WriteByte('~')
			}
		}
		fmt.Println(" ", b.String())
	}
}

func cmdRender(args []string) error {
	fs := flag.NewFlagSet("render", flag.ExitOnError)
	wf := addWorldFlags(fs)
	level := fs.Int("level", 2, "zoom level to render")
	scale := fs.Int("scale", 2, "pixels per cell")
	out := fs.String("out", "world.png", "output PNG path")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ds, err := wf.build()
	if err != nil {
		return err
	}
	img, err := render.Level(ds.Pyramid, *level, render.Options{
		Attr: ds.Attr, Min: -1, Max: 1, Scale: *scale,
	})
	if err != nil {
		return err
	}
	if err := render.SavePNG(*out, img); err != nil {
		return err
	}
	fmt.Printf("level %d rendered to %s (%dx%d px)\n",
		*level, *out, img.Bounds().Dx(), img.Bounds().Dy())
	return nil
}

// cmdBench writes the experiments' tables to w; progress and timings go to
// stderr, so w's bytes are deterministic for a fixed world.
func cmdBench(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	wf := addWorldFlags(fs)
	list := fs.Bool("list", false, "list available experiments")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, e := range eval.Experiments() {
			fmt.Fprintf(w, "  %-16s %s\n", e.Name, e.Paper)
		}
		return nil
	}
	exps := eval.Experiments()
	if names := fs.Args(); len(names) > 0 && !(len(names) == 1 && names[0] == "all") {
		exps = nil
		for _, name := range names {
			e, ok := eval.Lookup(name)
			if !ok {
				return fmt.Errorf("unknown experiment %q (try -list)", name)
			}
			exps = append(exps, e)
		}
	}
	ds, err := wf.build()
	if err != nil {
		return err
	}
	traces := ds.SimulateStudy(wf.seed)
	h := ds.Harness(traces)
	for _, e := range exps {
		fmt.Fprintf(w, "\n=== %s (%s) ===\n", e.Name, e.Paper)
		start := time.Now()
		if err := e.Run(w, h); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "[%s took %s]\n", e.Name, time.Since(start).Round(time.Millisecond))
	}
	return nil
}
