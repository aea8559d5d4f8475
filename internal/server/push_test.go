package server

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"forecache/internal/backend"
	"forecache/internal/core"
	"forecache/internal/prefetch"
	"forecache/internal/push"
	"forecache/internal/recommend"
	"forecache/internal/tile"
)

// pushTestServer wires the full push pipeline: one registry shared by the
// scheduler (frame production) and the server (stream transport).
func pushTestServer(t *testing.T, pcfg push.Config, cfg Config) (*Server, *httptest.Server, *prefetch.Scheduler, *push.Registry) {
	t.Helper()
	pyr := testPyramid(t)
	db := backend.NewDBMS(pyr, backend.DefaultLatency(), nil)
	reg := push.NewRegistry(pcfg)
	sched := prefetch.NewScheduler(db, prefetch.Config{Workers: 2})
	factory := func(q core.Submitter) (*core.Engine, error) {
		m := recommend.NewMomentum()
		return core.NewEngine(db, nil, core.SinglePolicy{Model: m.Name()},
			[]recommend.Model{m}, core.Config{K: 4, Scheduler: q})
	}
	cfg.Scheduler, cfg.Push = sched, reg
	srv := New(Meta{Levels: pyr.NumLevels(), TileSize: pyr.TileSize(), Attrs: pyr.Attrs()}, factory, cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	t.Cleanup(srv.Close)
	return srv, ts, sched, reg
}

// attachStream opens GET /stream for a session the way curl does — no
// Accept header, so the answer must be SSE — and decodes frames into the
// returned channel until the stream ends (then the channel closes).
func attachStream(t *testing.T, ts *httptest.Server, session string) (<-chan push.Frame, *http.Response) {
	t.Helper()
	frames, resp := attachStreamWith(t, ts, session, nil)
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream content type = %q", ct)
	}
	return frames, resp
}

// binaryGzip is what a NegotiateBinary client sends on /tile and /stream.
var binaryGzip = map[string]string{"Accept": tile.BinaryContentType, "Accept-Encoding": "gzip"}

// attachStreamWith is attachStream with request headers; the decoder
// follows the response's Content-Type.
func attachStreamWith(t *testing.T, ts *httptest.Server, session string, headers map[string]string) (<-chan push.Frame, *http.Response) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/stream?session="+session, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatalf("attach stream: %v", err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status = %d", resp.StatusCode)
	}
	decode := push.Decode
	if resp.Header.Get("Content-Type") == push.BinaryContentType {
		decode = push.DecodeBinary
	}
	frames := make(chan push.Frame, 256)
	go func() {
		defer close(frames)
		r := bufio.NewReader(resp.Body)
		for {
			f, err := decode(r)
			if err != nil {
				return
			}
			// Every tile frame is decoded here, so a damaged one fails the
			// test, and the receiving test reads f.Tile.
			if f.Type == push.FrameTile {
				if f.Tile, err = f.DecodeTile(); err != nil {
					t.Error(err)
					return
				}
			}
			frames <- f
		}
	}()
	return frames, resp
}

// waitFrame receives one frame or fails after the timeout. ok=false means
// the stream ended (channel closed).
func waitFrame(t *testing.T, frames <-chan push.Frame, timeout time.Duration) (push.Frame, bool) {
	t.Helper()
	select {
	case f, ok := <-frames:
		return f, ok
	case <-time.After(timeout):
		t.Fatal("no frame within timeout")
		return push.Frame{}, false
	}
}

// TestStreamDeliversPushedTiles: a tile request's prefetch batch is framed
// down the session's stream, and requesting a pushed coordinate closes the
// push-to-consume loop.
func TestStreamDeliversPushedTiles(t *testing.T) {
	_, ts, sched, reg := pushTestServer(t, push.Config{}, Config{})
	frames, _ := attachStream(t, ts, "u1")

	resp, err := ts.Client().Get(ts.URL + "/tile?level=0&y=0&x=0&session=u1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	sched.Drain() // every completed fetch's frame is enqueued once Drain returns

	f, ok := waitFrame(t, frames, 5*time.Second)
	if !ok {
		t.Fatal("stream ended before any tile frame")
	}
	if f.Type != push.FrameTile || f.Session != "u1" || f.Seq == 0 || f.Tile == nil {
		t.Fatalf("frame = %+v", f)
	}
	if f.Model == "" {
		t.Fatalf("frame missing model attribution: %+v", f)
	}
	if st := reg.Stats(); st.Open != 1 || st.Pushed < 1 {
		t.Fatalf("registry stats = %+v", st)
	}

	// Consuming the pushed coordinate records one lead-time observation.
	u := fmt.Sprintf("/tile?level=%d&y=%d&x=%d&session=u1", f.Coord.Level, f.Coord.Y, f.Coord.X)
	resp, err = ts.Client().Get(ts.URL + u)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("consume status = %d", resp.StatusCode)
	}
	if st := reg.Stats(); st.Consumed != 1 {
		t.Fatalf("Consumed = %d, want 1", st.Consumed)
	}
}

// TestStreamBackfillOnReconnect: a re-attached stream replays the
// session's live cached predictions as backfill frames, without emitting
// any new cache outcome (the feedback loop judges each prediction exactly
// once, on real consumption).
func TestStreamBackfillOnReconnect(t *testing.T) {
	srv, ts, sched, reg := pushTestServer(t, push.Config{}, Config{})

	// No stream attached yet: prefetches land in the cache only.
	resp, err := ts.Client().Get(ts.URL + "/tile?level=0&y=0&x=0&session=u1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	sched.Drain()
	if st := reg.Stats(); st.Pushed != 0 {
		t.Fatalf("pushed %d frames with no stream attached", st.Pushed)
	}
	eng, ok := srv.peekSession("u1")
	if !ok {
		t.Fatal("session u1 missing")
	}
	cached := eng.CachedPredictions()
	if len(cached) == 0 {
		t.Fatal("no cached predictions to backfill")
	}
	before := eng.CacheStats()

	// Attach (a "reconnect" after the dropped pre-test stream): every
	// cached prediction must arrive as a backfill-marked frame.
	frames, _ := attachStream(t, ts, "u1")
	got := map[tile.Coord]bool{}
	for range cached {
		f, ok := waitFrame(t, frames, 5*time.Second)
		if !ok {
			t.Fatal("stream ended mid-backfill")
		}
		if !f.Backfill {
			t.Fatalf("expected backfill frame, got %+v", f)
		}
		got[f.Coord] = true
	}
	for _, p := range cached {
		if !got[p.Tile.Coord] {
			t.Fatalf("cached prediction %v not backfilled (got %v)", p.Tile.Coord, got)
		}
	}
	if st := reg.Stats(); st.Backfilled != len(cached) {
		t.Fatalf("Backfilled = %d, want %d", st.Backfilled, len(cached))
	}
	// The replay is observational: it must not register as consumption,
	// eviction or a fresh prefetch in the feedback loop's raw material.
	if after := eng.CacheStats(); after != before {
		t.Fatalf("backfill perturbed cache stats: before=%+v after=%+v", before, after)
	}
}

// TestStreamSupersededByReconnect: a second attach for the same session
// ends the first stream (newest connection wins).
func TestStreamSupersededByReconnect(t *testing.T) {
	_, ts, _, reg := pushTestServer(t, push.Config{}, Config{})
	first, _ := attachStream(t, ts, "u1")
	second, _ := attachStream(t, ts, "u1")
	select {
	case _, ok := <-first:
		if ok {
			t.Fatal("unexpected frame on superseded stream")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("superseded stream still open")
	}
	select {
	case _, ok := <-second:
		t.Fatalf("fresh stream ended (frame=%v)", ok)
	default:
	}
	if st := reg.Stats(); st.Open != 1 || st.Opened != 2 {
		t.Fatalf("registry stats = %+v", st)
	}
}

// TestStreamHeartbeat: an idle stream emits heartbeat frames at the
// configured cadence, in either framing.
func TestStreamHeartbeat(t *testing.T) {
	for name, headers := range map[string]map[string]string{"sse": nil, "binary": binaryGzip} {
		t.Run(name, func(t *testing.T) {
			ec := tile.NewEncodedCache(0, nil)
			_, ts, _, reg := pushTestServer(t, push.Config{Heartbeat: 30 * time.Millisecond}, Config{Encoded: ec})
			frames, resp := attachStreamWith(t, ts, "u1", headers)
			if ct := resp.Header.Get("Content-Type"); (ct == push.BinaryContentType) != (headers != nil) {
				t.Fatalf("stream content type = %q", ct)
			}
			f, ok := waitFrame(t, frames, 5*time.Second)
			if !ok {
				t.Fatal("stream ended before a heartbeat")
			}
			if f.Type != push.FrameHeartbeat {
				t.Fatalf("frame = %+v, want heartbeat", f)
			}
			if st := reg.Stats(); st.Heartbeats < 1 || st.Bytes == 0 {
				t.Fatalf("stats = %+v, want the heartbeat and its bytes counted", st)
			}
		})
	}
}

// TestStreamClosedOnEviction: LRU-evicting a session ends its stream (the
// handler goroutine observes the registry detach and returns, closing the
// response).
func TestStreamClosedOnEviction(t *testing.T) {
	_, ts, _, _ := pushTestServer(t, push.Config{}, Config{MaxSessions: 1})
	frames, _ := attachStream(t, ts, "a")
	// Creating session b evicts a (cap 1) and must tear a's stream down.
	resp, err := ts.Client().Get(ts.URL + "/tile?level=0&y=0&x=0&session=b")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	select {
	case _, ok := <-frames:
		if ok {
			t.Fatal("unexpected frame on evicted session's stream")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("evicted session's stream still open")
	}
}

// TestStreamClosedOnServerClose: Close ends every open stream promptly and
// a post-Close attach is refused.
func TestStreamClosedOnServerClose(t *testing.T) {
	srv, ts, _, _ := pushTestServer(t, push.Config{}, Config{})
	frames, _ := attachStream(t, ts, "a")
	srv.Close()
	select {
	case _, ok := <-frames:
		if ok {
			t.Fatal("unexpected frame after Close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stream still open after Close")
	}
	resp, err := ts.Client().Get(ts.URL + "/stream?session=late")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-close stream status = %d, want 503", resp.StatusCode)
	}
}

// TestStreamEvictionWriteCloseRace races stream attaches, tile-driven
// pushes, LRU evictions and Close under -race: every request completes,
// Close does not deadlock on a mid-write stream, and no goroutine leaks a
// stream past shutdown.
func TestStreamEvictionWriteCloseRace(t *testing.T) {
	srv, ts, _, reg := pushTestServer(t, push.Config{Heartbeat: 5 * time.Millisecond}, Config{MaxSessions: 2})
	start := make(chan struct{})
	var wg sync.WaitGroup
	// Stream churn: 3 session ids over a 2-session cap forces evictions.
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < 15; i++ {
				resp, err := ts.Client().Get(ts.URL + fmt.Sprintf("/stream?session=s%d", g))
				if err != nil {
					return // server closed mid-dial
				}
				buf := make([]byte, 512)
				resp.Body.Read(buf) // pull a little so writes interleave
				resp.Body.Close()
			}
		}(g)
	}
	// Tile traffic drives prefetch pushes and evictions.
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < 30; i++ {
				url := ts.URL + fmt.Sprintf("/tile?level=%d&y=0&x=0&session=s%d", i%2, g)
				resp, err := ts.Client().Get(url)
				if err != nil {
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
					t.Errorf("tile status = %d", resp.StatusCode)
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		time.Sleep(10 * time.Millisecond)
		srv.Close()
	}()
	close(start)
	wg.Wait()
	if st := reg.Stats(); st.Open != 0 {
		t.Fatalf("streams leaked past Close: %+v", st)
	}
}

// TestStreamFramingNegotiation: /stream picks its framing from the request
// headers exactly as /tile picks its format. No media type named — curl,
// EventSource — is answered with the SSE bytes push.Encode has always
// produced; the binary codec is granted only where an encoded cache holds
// the bodies to frame; and whichever framing runs, the frame bytes are in
// forecache_push_bytes_total by the time a client holds them.
func TestStreamFramingNegotiation(t *testing.T) {
	cases := []struct {
		name     string
		encoded  bool
		headers  map[string]string
		wantType string
		wantGzip bool
	}{
		{name: "no Accept, encoded cache", encoded: true, wantType: "text/event-stream"},
		{name: "no Accept, no cache", wantType: "text/event-stream"},
		// Go's transport asks for gzip on its own unless told otherwise.
		{name: "binary", encoded: true, headers: map[string]string{"Accept": tile.BinaryContentType, "Accept-Encoding": "identity"}, wantType: push.BinaryContentType},
		{name: "binary+gzip", encoded: true, headers: binaryGzip, wantType: push.BinaryContentType, wantGzip: true},
		{name: "binary asked of a server without the cache", headers: binaryGzip, wantType: "text/event-stream"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Metrics: true}
			if tc.encoded {
				cfg.Encoded = tile.NewEncodedCache(0, nil)
			}
			_, ts, sched, _ := pushTestServer(t, push.Config{}, cfg)
			req, err := http.NewRequest(http.MethodGet, ts.URL+"/stream?session=u1", nil)
			if err != nil {
				t.Fatal(err)
			}
			for k, v := range tc.headers {
				req.Header.Set(k, v)
			}
			resp, err := ts.Client().Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if ct := resp.Header.Get("Content-Type"); resp.StatusCode != http.StatusOK || ct != tc.wantType {
				t.Fatalf("status %d, Content-Type %q, want 200 %q", resp.StatusCode, ct, tc.wantType)
			}
			if ce := resp.Header.Get("Content-Encoding"); ce != "" {
				t.Fatalf("Content-Encoding = %q: compression is per frame, never the response's", ce)
			}
			getTileRaw(t, ts, "u1", nil)
			sched.Drain()

			// Keep every byte the decoder consumes: the first frame is
			// checked against the encoder, byte for byte.
			var raw bytes.Buffer
			r := bufio.NewReader(io.TeeReader(resp.Body, &raw))
			var f push.Frame
			var want []byte
			if tc.wantType == push.BinaryContentType {
				if f, err = push.DecodeBinary(r); err != nil {
					t.Fatal(err)
				}
				if f.Tile, err = f.DecodeTile(); err != nil {
					t.Fatal(err)
				}
				if gz := raw.Bytes()[1]&2 != 0; gz != tc.wantGzip {
					t.Fatalf("frame gzip flag = %v, want %v", gz, tc.wantGzip)
				}
				body, err := tile.EncodeBinary(f.Tile)
				if err != nil {
					t.Fatal(err)
				}
				if tc.wantGzip {
					if body, err = tile.Gzip(body); err != nil {
						t.Fatal(err)
					}
				}
				if want, err = push.AppendBinary(nil, f, body, tc.wantGzip); err != nil {
					t.Fatal(err)
				}
			} else {
				if f, err = push.Decode(r); err != nil {
					t.Fatal(err)
				}
				if f.Tile, err = f.DecodeTile(); err != nil {
					t.Fatal(err)
				}
				f.Payload = nil // encode the decoded tile, not the bytes read
				var sse bytes.Buffer
				if _, err := push.Encode(&sse, f); err != nil {
					t.Fatal(err)
				}
				want = sse.Bytes()
			}
			if f.Type != push.FrameTile || f.Seq != 1 || f.Model == "" || f.Tile == nil || f.Tile.Coord != f.Coord {
				t.Fatalf("first frame = %+v", f)
			}
			if !bytes.HasPrefix(raw.Bytes(), want) {
				t.Fatalf("stream does not start with the encoder's bytes for %+v:\n got %q\nwant %q",
					f, raw.Bytes()[:min(raw.Len(), 120)], want[:min(len(want), 120)])
			}

			mresp, err := ts.Client().Get(ts.URL + "/metrics")
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(mresp.Body)
			mresp.Body.Close()
			values := validatePromText(t, string(body))
			if got := values["forecache_push_bytes_total"]; got < float64(len(want)) {
				t.Fatalf("forecache_push_bytes_total = %v with a %d-byte frame already received", got, len(want))
			}
			if values["forecache_push_tiles_total"] < 1 || values["forecache_push_streams"] != 1 {
				t.Fatalf("push families: tiles %v streams %v", values["forecache_push_tiles_total"], values["forecache_push_streams"])
			}
		})
	}
}

// slowConn is the stub connection of
// TestStreamDrainRateExcludesEncode: it takes a moment per Write, so the
// drain-rate sample is never discarded as zero-length.
type slowConn struct {
	*httptest.ResponseRecorder
	wrote chan int
}

func (w *slowConn) Write(p []byte) (int, error) {
	time.Sleep(time.Millisecond)
	w.wrote <- len(p)
	return len(p), nil
}

// TestStreamDrainRateExcludesEncode: the drain-rate EWMA is the
// scheduler's estimate of the connection, so the clock around a frame
// write must not cover resolving its payload. A first-touch encode is held
// for 300 ms; the recorded sample has to be far shorter.
func TestStreamDrainRateExcludesEncode(t *testing.T) {
	const encodeDelay = 300 * time.Millisecond
	ec := tile.NewEncodedCache(0, nil)
	srv, _, _, reg := pushTestServer(t, push.Config{}, Config{Encoded: ec})
	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest(http.MethodGet, "/stream?session=u1", nil).WithContext(ctx)
	req.Header.Set("Accept", tile.BinaryContentType)
	w := &slowConn{ResponseRecorder: httptest.NewRecorder(), wrote: make(chan int, 8)}
	done := make(chan struct{})
	go func() { defer close(done); srv.ServeHTTP(w, req) }()
	defer func() { cancel(); <-done }()
	for reg.Stats().Open == 0 {
		time.Sleep(time.Millisecond)
	}

	c := tile.Coord{Level: 1, Y: 1, X: 1}
	tl, err := testPyramid(t).Tile(c)
	if err != nil {
		t.Fatal(err)
	}
	// Hold the tile's single-flight encode open: the handler's own lookup
	// joins it and waits the delay out before it can write.
	encoding := make(chan struct{})
	go func() {
		_, _ = ec.Get(c, tile.FormatBinary, false, func() ([]byte, error) {
			close(encoding)
			time.Sleep(encodeDelay)
			return tile.EncodeBinary(tl)
		})
	}()
	<-encoding
	start := time.Now()
	if !reg.Push("u1", "m", c, 1, tl) {
		t.Fatal("Push refused")
	}
	n := <-w.wrote
	if waited := time.Since(start); waited < encodeDelay/2 {
		t.Fatalf("frame written after %v: the encode was not held", waited)
	}
	var bps float64
	for deadline := time.Now().Add(5 * time.Second); bps == 0; bps = reg.Stats().DrainRates["u1"] {
		if time.Now().After(deadline) {
			t.Fatal("no drain-rate sample recorded")
		}
		time.Sleep(time.Millisecond)
	}
	if elapsed := time.Duration(float64(n) / bps * float64(time.Second)); elapsed > encodeDelay/2 {
		t.Fatalf("drain sample covers %v for a %d-byte write behind a %v encode: the encoder was timed", elapsed, n, encodeDelay)
	}
}

// TestStreamSharesEncodedJSONBody: the SSE handler frames a pushed tile
// around its memoized JSON body, so one tile pushed to three attached
// streams is encoded once, and every data line carries the cached bytes.
func TestStreamSharesEncodedJSONBody(t *testing.T) {
	ec := tile.NewEncodedCache(0, nil)
	_, ts, _, reg := pushTestServer(t, push.Config{}, Config{Encoded: ec})
	sessions := []string{"s0", "s1", "s2"}
	streams := make([]<-chan push.Frame, len(sessions))
	for i, id := range sessions {
		streams[i], _ = attachStream(t, ts, id)
	}
	c := tile.Coord{Level: 2, Y: 1, X: 1}
	tl, err := testPyramid(t).Tile(c)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range sessions {
		if !reg.Push(id, "m", c, 1, tl) {
			t.Fatalf("Push to %s refused", id)
		}
	}
	for i, frames := range streams {
		f, ok := waitFrame(t, frames, 5*time.Second)
		if !ok {
			t.Fatalf("stream %d ended before its frame", i)
		}
		if f.Coord != c || f.Tile.Coord != c {
			t.Fatalf("stream %d: frame %+v does not carry the pushed tile", i, f)
		}
		body, err := ec.Get(c, tile.FormatJSON, false, func() ([]byte, error) {
			t.Fatal("the pushed tile's JSON body is not in the encoded cache")
			return nil, nil
		})
		if err != nil || !bytes.Equal(f.Payload, bytes.TrimSpace(body)) {
			t.Fatalf("stream %d: data line carries %q, want the memoized body %q", i, f.Payload, body)
		}
		if got, err := f.Tile.EncodeJSON(); err != nil || !bytes.Equal(got, body) {
			t.Fatalf("stream %d: decoded tile re-encodes to %q, want %q", i, got, body)
		}
	}
	if st := ec.Stats(); st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("one tile pushed to %d streams: %+v, want 1 encode and 1 entry", len(streams), st)
	}
}

// TestStreamBackfillTakesEncodedBody: an SSE backfill frame carries the
// memoized JSON body of its tile — a body seeded into the cache with an
// extra field reaches the client verbatim — while a binary stream, pushed
// and backfilled, never creates the JSON variant.
func TestStreamBackfillTakesEncodedBody(t *testing.T) {
	ec := tile.NewEncodedCache(0, nil)
	srv, ts, sched, reg := pushTestServer(t, push.Config{}, Config{Encoded: ec})
	getTileRaw(t, ts, "u1", nil)
	sched.Drain()
	eng, ok := srv.peekSession("u1")
	if !ok {
		t.Fatal("session u1 missing")
	}
	cached := eng.CachedPredictions()
	if len(cached) == 0 {
		t.Fatal("no cached predictions to backfill")
	}
	seeded := cached[0].Tile
	canonical, err := seeded.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	marked := append([]byte(`{"memo":1,`), canonical[1:]...)
	if _, err := ec.Get(seeded.Coord, tile.FormatJSON, false, func() ([]byte, error) { return marked, nil }); err != nil {
		t.Fatal(err)
	}
	frames, _ := attachStream(t, ts, "u1")
	found := false
	for range cached {
		f, ok := waitFrame(t, frames, 5*time.Second)
		if !ok {
			t.Fatal("stream ended mid-backfill")
		}
		if !f.Backfill {
			t.Fatalf("expected a backfill frame, got %+v", f)
		}
		if f.Coord != seeded.Coord {
			continue
		}
		if !bytes.Equal(f.Payload, bytes.TrimSpace(marked)) || f.Tile.Coord != seeded.Coord {
			t.Fatalf("backfill data line carries %q, want the memoized body %q", f.Payload, marked)
		}
		found = true
	}
	if !found {
		t.Fatalf("no backfill frame for %v", seeded.Coord)
	}
	if st := reg.Stats(); st.Backfilled != len(cached) {
		t.Fatalf("Backfilled = %d, want %d", st.Backfilled, len(cached))
	}
	// The pulled root, the seeded body and one encode per other backfilled
	// tile.
	if st := ec.Stats(); st.Misses != int64(1+len(cached)) {
		t.Fatalf("after 1 pull and %d backfilled tiles: %+v, want %d encodes", len(cached), st, 1+len(cached))
	}

	t.Run("binary", func(t *testing.T) {
		ec := tile.NewEncodedCache(0, nil)
		srv, ts, sched, reg := pushTestServer(t, push.Config{}, Config{Encoded: ec})
		getTileRaw(t, ts, "b1", binaryGzip)
		sched.Drain()
		eng, ok := srv.peekSession("b1")
		if !ok {
			t.Fatal("session b1 missing")
		}
		var coords []tile.Coord
		for _, p := range eng.CachedPredictions() {
			coords = append(coords, p.Tile.Coord)
		}
		frames, _ := attachStreamWith(t, ts, "b1", binaryGzip)
		fresh := tile.Coord{Level: 2, Y: 2, X: 2}
		tl, err := testPyramid(t).Tile(fresh)
		if err != nil {
			t.Fatal(err)
		}
		// Pushed after the backfill, so the fresh frame arrives last.
		for reg.Stats().Backfilled < len(coords) {
			time.Sleep(time.Millisecond)
		}
		if !reg.Push("b1", "m", fresh, 1, tl) {
			t.Fatal("Push to the binary stream refused")
		}
		coords = append(coords, fresh)
		for range coords {
			if f, ok := waitFrame(t, frames, 5*time.Second); !ok || f.Type != push.FrameTile {
				t.Fatalf("binary stream: frame %+v (open %v)", f, ok)
			}
		}
		for _, c := range coords {
			encoded := false
			if _, err := ec.Get(c, tile.FormatJSON, false, func() ([]byte, error) {
				encoded = true
				return []byte("{}"), nil
			}); err != nil || !encoded {
				t.Fatalf("%v: a binary stream created the JSON variant", c)
			}
		}
	})
}
