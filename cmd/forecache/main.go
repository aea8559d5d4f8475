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
	"net/http/pprof"
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

// serveFlags are serve's own knobs: the listen address, the log level,
// whether the profiling handlers are mounted, and the deployment config the
// remaining flags size in place.
type serveFlags struct {
	addr     string
	logLevel string
	pprof    bool
	cfg      forecache.MiddlewareConfig
}

// addServeFlags registers serve's flags over the one deployment shape it
// runs: async prefetch with its two feedback loops (utility learning and
// adaptive allocation) over the hotspot model, push delivery, the
// encoded-payload cache with binary and gzip negotiation, /metrics and
// tracing, all always on. The flags only size or place that deployment.
func addServeFlags(fs *flag.FlagSet) *serveFlags {
	sf := &serveFlags{cfg: forecache.MiddlewareConfig{
		AsyncPrefetch: true, UtilityLearning: true,
		AdaptiveAllocation: true, Hotspot: true, Push: true, BinaryTiles: true,
		MetricsEndpoint: true, Tracing: true,
	}}
	c := &sf.cfg
	fs.StringVar(&sf.addr, "addr", ":8080", "listen address")
	fs.IntVar(&c.Shards, "shards", 1, "prefetch scheduler shards behind a hash router keyed on session id (queues and workers go per-shard; the session table, single-flight and learned state stay deployment-wide)")
	fs.IntVar(&c.PrefetchWorkers, "prefetch-workers", 4, "scheduler worker pool size (concurrent DBMS fetches)")
	fs.BoolVar(&sf.pprof, "pprof", false, "expose Go's net/http/pprof profiling handlers under GET /debug/pprof/")
	fs.StringVar(&sf.logLevel, "log-level", "info", "structured request log level: debug, info, warn or error (debug logs every finished trace)")
	fs.StringVar(&c.StateDir, "state-dir", "", "directory for crash-safe snapshots of learned state (utility curve, allocation shares, hotspot table); restored at startup, written on -snapshot-interval and at shutdown (empty disables)")
	fs.DurationVar(&c.SnapshotInterval, "snapshot-interval", 0, "background snapshot cadence (0 = 30s default; negative disables the ticker, shutdown still snapshots)")
	fs.Int64Var(&c.EncodedCacheBudget, "encoded-cache-budget", 0, "encoded tile payload cache budget in bytes (0 = 64 MiB default)")
	fs.IntVar(&c.SharedTiles, "shared-tiles", 512, "cross-session shared tile pool capacity (0 disables)")
	fs.IntVar(&c.MaxSessions, "max-sessions", 1024, "live session cap, LRU-evicted past it (0 = unlimited)")
	fs.DurationVar(&c.SessionTTL, "session-ttl", 30*time.Minute, "evict sessions idle this long (0 = never)")
	return sf
}

// deploy builds the deployment over wf's world: the middleware, and the
// handler in front of it, which mounts Go's profiling handlers only when
// -pprof asks.
func (sf *serveFlags) deploy(wf *worldFlags) (*forecache.Server, http.Handler, error) {
	logger, err := obs.NewLogger(os.Stderr, sf.logLevel)
	if err != nil {
		return nil, nil, err
	}
	cfg := sf.cfg
	cfg.Logger = logger
	ds, err := wf.build()
	if err != nil {
		return nil, nil, err
	}
	srv, err := ds.NewServer(ds.SimulateStudy(wf.seed), cfg)
	if err != nil {
		return nil, nil, err
	}
	if !sf.pprof {
		return srv, srv, nil
	}
	mux := http.NewServeMux()
	mux.Handle("/", srv)
	// pprof.Index routes named profiles (heap, goroutine, ...) by path
	// suffix, so the subtree pattern covers them all.
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("POST /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return srv, mux, nil
}

func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	wf := addWorldFlags(fs)
	sf := addServeFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	srv, handler, err := sf.deploy(wf)
	if err != nil {
		return err
	}
	defer srv.Close()
	endpoints := "GET /meta, /tile?level=&y=&x=, /stats, /stream, /metrics, /debug/traces"
	if sf.pprof {
		endpoints += ", /debug/pprof/"
	}

	// Listen first so a bad address fails fast with a non-zero exit. On
	// SIGINT/SIGTERM in-flight requests drain through http.Server.Shutdown,
	// and returning lets the deferred srv.Close stop the scheduler and write
	// the final snapshot.
	ln, err := net.Listen("tcp", sf.addr)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Printf("serving tiles on %s (async prefetch, %d workers, %d shard(s); push; binary tile codec + encoded-payload cache; %s; POST /reset)\n",
		sf.addr, sf.cfg.PrefetchWorkers, max(1, sf.cfg.Shards), endpoints)
	httpSrv := newHTTPServer(handler)
	// Shutdown waits for in-flight handlers, and an attached push stream is
	// one that would outlive the drain window: closing the registry when the
	// drain begins ends each stream, so SIGTERM with streams open exits 0.
	// (Close is idempotent; the deferred srv.Close repeats it harmlessly.)
	httpSrv.RegisterOnShutdown(srv.Push().Close)
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

// scrapeTimeout bounds one scrape, body included: a wedged /metrics fails
// the command instead of hanging it.
const scrapeTimeout = 10 * time.Second

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
	return scrape(&http.Client{Timeout: scrapeTimeout}, *url)
}

// scrape fetches url with client and validates the exposition.
func scrape(client *http.Client, url string) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("scrape %s: status %s", url, resp.Status)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return err
	}
	samples, err := obs.ParsePromText(string(body))
	if err != nil {
		return fmt.Errorf("scrape %s: invalid exposition: %w", url, err)
	}
	histograms := 0
	for key := range samples {
		if strings.Contains(key, "_bucket{") {
			histograms++
		}
	}
	fmt.Printf("%s: %d samples valid (%d histogram buckets)\n", url, len(samples), histograms)
	return nil
}

func cmdExplore(args []string) error {
	fs := flag.NewFlagSet("explore", flag.ExitOnError)
	wf := addWorldFlags(fs)
	moves := fs.String("moves", "in-nw,in-se,right,down,out", "comma-separated move script")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ds, err := wf.build()
	if err != nil {
		return err
	}
	traces := ds.SimulateStudy(wf.seed)
	mw, err := ds.NewMiddleware(traces, forecache.MiddlewareConfig{})
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
		// Apply maps a zoom-out of the root to the root itself.
		next := trace.Apply(cur, mv)
		if next == cur || !ds.Pyramid.Contains(next) {
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
