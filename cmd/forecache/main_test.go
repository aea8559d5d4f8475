package main

import (
	"bytes"
	"context"
	"flag"
	"io"
	"io/fs"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"forecache"
	"forecache/internal/core"
	"forecache/internal/eval"
	"forecache/internal/obs"
	"forecache/internal/persist"
	"forecache/internal/prefetch"
	"forecache/internal/push"
	"forecache/internal/recommend"
	"forecache/internal/server"
	"forecache/internal/sig"
)

// The subcommands are exercised with tiny worlds so CLI plumbing (flag
// parsing, output files, error paths) stays covered by `go test ./...`.

func tinyWorld(extra ...string) []string {
	return append([]string{"-seed", "3", "-size", "128", "-tile", "16"}, extra...)
}

func TestCmdTracegenWritesTraces(t *testing.T) {
	dir := t.TempDir()
	if err := cmdTracegen(tinyWorld("-out", dir)); err != nil {
		t.Fatalf("tracegen: %v", err)
	}
	matches, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(matches) != 54 {
		t.Errorf("trace files = %d, want 54 (%v)", len(matches), err)
	}
}

func TestCmdRenderWritesPNG(t *testing.T) {
	out := filepath.Join(t.TempDir(), "w.png")
	if err := cmdRender(tinyWorld("-level", "2", "-out", out)); err != nil {
		t.Fatalf("render: %v", err)
	}
	info, err := os.Stat(out)
	if err != nil || info.Size() == 0 {
		t.Errorf("png missing or empty: %v", err)
	}
}

func TestCmdRenderBadLevel(t *testing.T) {
	out := filepath.Join(t.TempDir(), "w.png")
	if err := cmdRender(tinyWorld("-level", "99", "-out", out)); err == nil {
		t.Error("out-of-range level should fail")
	}
}

func TestCmdExploreScript(t *testing.T) {
	if err := cmdExplore(tinyWorld("-moves", "in-nw,in-se,out")); err != nil {
		t.Fatalf("explore: %v", err)
	}
	if err := cmdExplore(tinyWorld("-moves", "sideways")); err == nil {
		t.Error("unknown move should fail")
	}
}

// A zoom-out of the root goes nowhere: explore skips it like a move off
// the pyramid's edge and walks on.
func TestCmdExploreSkipsZoomOutAtRoot(t *testing.T) {
	if err := cmdExplore(tinyWorld("-moves", "out,in-nw")); err != nil {
		t.Fatalf("explore: %v", err)
	}
}

func TestCmdBenchListAndUnknown(t *testing.T) {
	var list bytes.Buffer
	if err := cmdBench(&list, []string{"-list"}); err != nil {
		t.Fatalf("bench -list: %v", err)
	}
	if !strings.Contains(list.String(), "table1") {
		t.Errorf("-list output lacks table1:\n%s", list.String())
	}
	if err := cmdBench(io.Discard, tinyWorld("no-such-experiment")); err == nil {
		t.Error("unknown experiment should fail")
	}
}

// TestCmdBenchValidatesNamesFirst: every name is resolved before anything is
// built or written, so a misspelt name after a valid one does not cost the
// world build and the valid experiment's run (19 s at the default size).
func TestCmdBenchValidatesNamesFirst(t *testing.T) {
	logFile, err := os.Create(filepath.Join(t.TempDir(), "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	defer logFile.Close()
	saved := os.Stderr
	os.Stderr = logFile
	var out bytes.Buffer
	err = cmdBench(&out, tinyWorld("fig9", "typo"))
	os.Stderr = saved
	if err == nil || !strings.Contains(err.Error(), `"typo"`) {
		t.Fatalf("err = %v, want unknown experiment \"typo\"", err)
	}
	if out.Len() != 0 {
		t.Errorf("experiment output written before the bad name was reported:\n%s", out.String())
	}
	logged, err := os.ReadFile(logFile.Name())
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(logged, []byte("building world")) {
		t.Errorf("world built before the bad name was reported:\n%s", logged)
	}
}

func TestCmdBenchRunsCheapExperiment(t *testing.T) {
	var out bytes.Buffer
	if err := cmdBench(&out, tinyWorld("fig9")); err != nil {
		t.Fatalf("bench fig9: %v", err)
	}
	if !strings.HasPrefix(out.String(), "\n=== fig9 (Figure 9) ===\n") {
		t.Errorf("fig9 output starts %q", out.String()[:min(40, out.Len())])
	}
}

var update = flag.Bool("update", false, "rewrite testdata/bench_all_128.golden from this tree's output")

// TestBenchAllGolden holds the paper's tables and figures to committed
// bytes, so a change to any figure fails `go test` instead of waiting for
// someone to diff `bench` output by hand: all 14 experiments at the
// CI-sized world, and the engine replays behind Figures 12 and 13 and §5.5
// at the default size the README quotes. A deliberate accuracy change
// reruns with -update and says why.
func TestBenchAllGolden(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"testdata/bench_all_128.golden", []string{"-size", "128", "all"}},
		{"testdata/bench_fig12_fig13_512.golden", []string{"-size", "512", "fig12", "fig13"}},
	} {
		t.Run(filepath.Base(tc.golden), func(t *testing.T) {
			var out bytes.Buffer
			if err := cmdBench(&out, tc.args); err != nil {
				t.Fatalf("bench %v: %v", tc.args, err)
			}
			if *update {
				if err := os.WriteFile(tc.golden, out.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(tc.golden)
			if err != nil {
				t.Fatal(err)
			}
			if bytes.Equal(out.Bytes(), want) {
				return
			}
			got, exp := strings.Split(out.String(), "\n"), strings.Split(string(want), "\n")
			header := ""
			for i := 0; i < max(len(got), len(exp)); i++ {
				g, e := "<end of output>", "<end of golden>"
				if i < len(got) {
					g = got[i]
				}
				if i < len(exp) {
					e = exp[i]
				}
				if g != e {
					t.Fatalf("bench %v differs from %s at line %d, under %q:\n got: %s\nwant: %s", tc.args, tc.golden, i+1, header, g, e)
				}
				if strings.HasPrefix(g, "=== ") {
					header = g
				}
			}
		})
	}
}

func TestCmdScrapeValidatesExposition(t *testing.T) {
	good := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("# HELP up 1 while serving.\n# TYPE up gauge\nup 1\n"))
	}))
	defer good.Close()
	if err := cmdScrape([]string{"-url", good.URL}); err != nil {
		t.Errorf("valid exposition rejected: %v", err)
	}

	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("up 1\n")) // sample without HELP/TYPE
	}))
	defer bad.Close()
	if err := cmdScrape([]string{"-url", bad.URL}); err == nil {
		t.Error("invalid exposition accepted")
	}

	failing := httptest.NewServer(http.NotFoundHandler())
	defer failing.Close()
	if err := cmdScrape([]string{"-url", failing.URL}); err == nil {
		t.Error("404 endpoint accepted")
	}
}

// TestScrapeTimesOut: a /metrics endpoint that never answers fails the
// scrape once the client's timeout passes, instead of hanging it.
func TestScrapeTimesOut(t *testing.T) {
	release := make(chan struct{})
	wedged := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer wedged.Close()
	defer close(release)
	start := time.Now()
	err := scrape(&http.Client{Timeout: 100 * time.Millisecond}, wedged.URL)
	if err == nil {
		t.Fatal("scrape of a wedged endpoint succeeded")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("scrape returned after %v, want about the client's 100ms timeout", elapsed)
	}
}

// TestKnobBudget fails when the option count creeps back up: every
// MiddlewareConfig field, serve flag and exported field of an internal
// config struct doubles the configurations tests and benchmarks must
// cover, so adding one means retiring one (or raising the budget here,
// deliberately, in the same change).
func TestKnobBudget(t *testing.T) {
	const maxFields, maxFlags = 22, 11
	if n := reflect.TypeOf(forecache.MiddlewareConfig{}).NumField(); n > maxFields {
		t.Errorf("MiddlewareConfig has %d fields, budget is %d", n, maxFields)
	}
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addServeFlags(fs)
	n := 0
	fs.VisitAll(func(*flag.Flag) { n++ })
	if n > maxFlags {
		t.Errorf("serve registers %d flags of its own, budget is %d", n, maxFlags)
	}
	// The internal config structs: a field only tests set is a knob too.
	for _, c := range []struct {
		cfg any
		max int
	}{
		{core.Config{}, 7},
		{core.AdaptiveConfig{}, 0},
		{prefetch.Config{}, 7},
		{push.Config{}, 3},
		{server.Config{}, 9},
		{persist.Config{}, 3},
		{recommend.HotspotConfig{}, 0},
		{obs.Config{}, 1},
		// The set-up structs, which build the world and run the
		// experiments.
		{sig.Config{}, 4},
		{forecache.WorldConfig{}, 3},
		{eval.Harness{}, 5},
	} {
		typ, n := reflect.TypeOf(c.cfg), 0
		for i := range typ.NumField() {
			if typ.Field(i).IsExported() {
				n++
			}
		}
		if n > c.max {
			t.Errorf("%s has %d exported fields, budget is %d", typ, n, c.max)
		}
	}
}

// TestRetiredServeFlagsRejected: a retired serve flag is a usage error,
// not silently ignored.
func TestRetiredServeFlagsRejected(t *testing.T) {
	for _, name := range []string{
		"k", "global-queue", "decay-half-life",
		"async", "push", "adaptive-allocation", "hotspot", "metrics", "tracing", "binary-tiles",
	} {
		fs := flag.NewFlagSet("serve", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		addWorldFlags(fs)
		addServeFlags(fs)
		if err := fs.Parse([]string{"-" + name, "5"}); err == nil {
			t.Errorf("serve accepted the retired flag -%s", name)
		}
	}
}

// TestServePrefetchWorkersAtLeastOne: a worker count below 1 is a usage
// error, not a banner that names a pool the deployment does not run.
func TestServePrefetchWorkersAtLeastOne(t *testing.T) {
	for _, c := range []struct {
		args []string
		want int // 0: rejected
	}{
		{nil, 4},
		{[]string{"-prefetch-workers", "2"}, 2},
		{[]string{"-prefetch-workers", "0"}, 0},
		{[]string{"-prefetch-workers", "-3"}, 0},
		{[]string{"-prefetch-workers", "two"}, 0},
	} {
		fs := flag.NewFlagSet("serve", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		sf := addServeFlags(fs)
		err := fs.Parse(c.args)
		switch {
		case c.want == 0 && err == nil:
			t.Errorf("serve %v accepted, running %d workers", c.args, sf.cfg.PrefetchWorkers)
		case c.want != 0 && (err != nil || sf.cfg.PrefetchWorkers != c.want):
			t.Errorf("serve %v: %d workers, err %v; want %d", c.args, sf.cfg.PrefetchWorkers, err, c.want)
		}
	}
}

// TestLineBudget fails when the code grows back: non-test Go outside
// benchmark/ is a tracked number (ROADMAP aim 2) that should go down, so a
// change that needs more lines deletes as many elsewhere (or raises the
// budget here, deliberately, in the same change). Counted the way CHANGES
// counts it: find . -name '*.go' -not -name '*_test.go' -not -path
// './benchmark/*' | xargs cat | wc -l.
func TestLineBudget(t *testing.T) {
	const maxLines = 15153
	const root = "../.."
	lines := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == filepath.Join(root, "benchmark") || (path != root && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		lines += bytes.Count(data, []byte("\n"))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if lines > maxLines {
		t.Errorf("non-test Go outside benchmark/ is %d lines, budget is %d", lines, maxLines)
	}
}

func TestCmdServeRejectsBadLogLevel(t *testing.T) {
	if err := cmdServe(tinyWorld("-log-level", "loud")); err == nil {
		t.Error("unknown log level should fail before building the world")
	}
}

// deployServe builds serve's deployment over the tiny world from serve's
// own flags and serves it from an httptest server.
func deployServe(t *testing.T, args ...string) *httptest.Server {
	t.Helper()
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	wf := addWorldFlags(fs)
	sf := addServeFlags(fs)
	if err := fs.Parse(tinyWorld(args...)); err != nil {
		t.Fatal(err)
	}
	srv, handler, err := sf.deploy(wf)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(handler)
	t.Cleanup(ts.Close)
	t.Cleanup(srv.Close) // runs first: ends the push streams ts.Close waits on
	return ts
}

// getStatus GETs path with the given Accept header and returns the status
// and content type, reading only the headers: a /stream response never
// ends on its own.
func getStatus(t *testing.T, ts *httptest.Server, path, accept string) (int, string) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	return resp.StatusCode, resp.Header.Get("Content-Type")
}

// TestServeRunsOneShape: serve with no flags but the world's mounts push,
// /metrics and traces, and negotiates the binary tile codec on /tile.
func TestServeRunsOneShape(t *testing.T) {
	ts := deployServe(t)
	for _, c := range []struct{ path, accept, contentType string }{
		{"/tile?level=0&y=0&x=0&session=s", "application/x-forecache-tile", "application/x-forecache-tile"},
		{"/tile?level=0&y=0&x=0&session=j", "", "application/json"},
		{"/stream?session=s", "", "text/event-stream"},
		{"/metrics", "", "text/plain; version=0.0.4; charset=utf-8"},
		{"/debug/traces", "", "application/json"},
	} {
		code, ct := getStatus(t, ts, c.path, c.accept)
		if code != 200 || ct != c.contentType {
			t.Errorf("GET %s (Accept %q) = %d %q, want 200 %q", c.path, c.accept, code, ct, c.contentType)
		}
	}
}

// TestPprofOptIn: the profiling handlers answer only behind -pprof, in
// front of the middleware, which still serves every other path.
func TestPprofOptIn(t *testing.T) {
	for _, on := range []bool{false, true} {
		var args []string
		want := http.StatusNotFound
		if on {
			args, want = []string{"-pprof"}, http.StatusOK
		}
		ts := deployServe(t, args...)
		for _, path := range []string{"/debug/pprof/", "/debug/pprof/goroutine?debug=1"} {
			if code, _ := getStatus(t, ts, path, ""); code != want {
				t.Errorf("-pprof=%v: GET %s = %d, want %d", on, path, code, want)
			}
		}
		if code, _ := getStatus(t, ts, "/meta", ""); code != 200 {
			t.Errorf("-pprof=%v: GET /meta = %d, want 200", on, code)
		}
	}
}

// TestServeUntilDoneShutsDownOnSignal drives the serve loop's shutdown
// path with a cancelable context standing in for SIGTERM: the loop must
// drain the http.Server and return nil so deferred cleanup (the final
// snapshot in cmdServe) runs.
func TestServeUntilDoneShutsDownOnSignal(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	httpSrv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- serveUntilDone(ctx, httpSrv, ln) }()

	// The server really serves before the "signal" arrives.
	resp, err := http.Get("http://" + ln.Addr().String() + "/")
	if err != nil {
		t.Fatalf("server not serving: %v", err)
	}
	resp.Body.Close()

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown returned %v, want nil (clean exit)", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serveUntilDone did not return after the signal")
	}
}

// TestServeUntilDonePropagatesServeError: a listener failing under the
// server must surface as a non-nil error (non-zero exit), not be mistaken
// for a clean shutdown.
func TestServeUntilDonePropagatesServeError(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln.Close() // Serve on a closed listener fails immediately
	httpSrv := &http.Server{Handler: http.NewServeMux()}
	if err := serveUntilDone(context.Background(), httpSrv, ln); err == nil {
		t.Fatal("serve error swallowed; want non-nil")
	}
}

// TestServeUntilDoneDrainsOpenStreams pins the shutdown shape cmdServe
// wires for push: a long-lived streaming handler is an in-flight request
// that http.Server.Shutdown would wait on past its bound, so an
// on-shutdown hook (cmdServe registers the push registry's Close) must
// end the stream and let SIGTERM exit clean with the stream attached.
func TestServeUntilDoneDrainsOpenStreams(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	streamEnd := make(chan struct{})
	httpSrv := newHTTPServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		w.(http.Flusher).Flush()
		select {
		case <-streamEnd:
		case <-r.Context().Done():
		}
	}))
	var once sync.Once
	httpSrv.RegisterOnShutdown(func() { once.Do(func() { close(streamEnd) }) })

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- serveUntilDone(ctx, httpSrv, ln) }()

	resp, err := http.Get("http://" + ln.Addr().String() + "/")
	if err != nil {
		t.Fatalf("stream not served: %v", err)
	}
	defer resp.Body.Close() // headers received, body (the stream) still open

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown with an open stream returned %v, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("shutdown hung on the open stream")
	}
}

// TestNewHTTPServerTimeouts pins the serve deployment's protective
// timeouts: header reads and idle keep-alives are bounded, while
// WriteTimeout stays zero — a global write deadline would kill every
// long-lived /stream push response (those use per-write deadlines via
// http.ResponseController instead).
func TestNewHTTPServerTimeouts(t *testing.T) {
	s := newHTTPServer(http.NewServeMux())
	if s.ReadHeaderTimeout <= 0 {
		t.Error("ReadHeaderTimeout unset: slowloris clients can hold connections open forever")
	}
	if s.IdleTimeout <= 0 {
		t.Error("IdleTimeout unset: idle keep-alive connections are never reaped")
	}
	if s.WriteTimeout != 0 {
		t.Errorf("WriteTimeout = %v, want 0 (a global write deadline kills push streams)", s.WriteTimeout)
	}
}

// TestServeRejectsSlowlorisHeaders: a client that opens a connection and
// dribbles a partial request header must be cut off once
// ReadHeaderTimeout elapses, not hold the connection open indefinitely —
// and the serve loop must still shut down cleanly afterwards.
func TestServeRejectsSlowlorisHeaders(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	httpSrv := newHTTPServer(http.NewServeMux())
	httpSrv.ReadHeaderTimeout = 150 * time.Millisecond // the test's patience, same mechanism
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- serveUntilDone(ctx, httpSrv, ln) }()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A request line and one header, never finished: the zero-value server
	// this test guards against would wait forever for the blank line.
	if _, err := conn.Write([]byte("GET / HTTP/1.1\r\nHost: x\r\n")); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("server answered a half-sent request header")
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("server still holding the slowloris connection after 10s")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("connection dropped after %v, want within the header timeout's order", elapsed)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown after slowloris returned %v, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serveUntilDone did not return after the signal")
	}
}
