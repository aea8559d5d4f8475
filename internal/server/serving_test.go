package server

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"forecache/internal/client"
	"forecache/internal/obs"
	"forecache/internal/push"
	"forecache/internal/tile"
)

// getTileRaw issues GET /tile?level=0&y=0&x=0 with the given headers and
// returns the response plus its full (undecoded) body. Each call must use
// a fresh session: re-requesting a session's current coordinate is not a
// legal pan/zoom move.
func getTileRaw(t *testing.T, ts *httptest.Server, session string, headers map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/tile?level=0&y=0&x=0&session="+session, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	// A non-nil Accept-Encoding disables the transport's transparent
	// gunzip, so the body below is exactly what the server wrote.
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	return resp, body
}

// TestEncodedTilesDefaultBodyMatchesLegacy: with no Accept header and no
// compression, both serving paths — uncached and encoded-cache — must
// produce the exact bytes json.Encoder has always written for a tile
// (rendered here as the independent reference) — replay suites diff bodies.
func TestEncodedTilesDefaultBodyMatchesLegacy(t *testing.T) {
	root, err := testPyramid(t).Tile(tile.Coord{})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(root); err != nil {
		t.Fatal(err)
	}
	_, uncached := testServer(t, Config{})
	_, encoded := testServer(t, Config{Encoded: tile.NewEncodedCache(0, nil)})
	ur, ubody := getTileRaw(t, uncached, "l1", nil)
	er, ebody := getTileRaw(t, encoded, "e1", nil)
	if !bytes.Equal(ubody, want.Bytes()) {
		t.Fatalf("uncached body differs from the json.Encoder rendering:\nwant: %q\ngot:  %q", want.Bytes(), ubody)
	}
	if !bytes.Equal(ebody, want.Bytes()) {
		t.Fatalf("cached body differs from the json.Encoder rendering:\nwant: %q\ngot:  %q", want.Bytes(), ebody)
	}
	for name, resp := range map[string]*http.Response{"uncached": ur, "encoded": er} {
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s content type = %q, want application/json", name, ct)
		}
		if enc := resp.Header.Get("Content-Encoding"); enc != "" {
			t.Errorf("%s: unsolicited Content-Encoding %q", name, enc)
		}
	}
	// The transport asks for gzip on its own and inflates the encoded
	// server's answer, so only the uncached response still carries a length.
	if ur.ContentLength != int64(want.Len()) {
		t.Errorf("uncached Content-Length = %d, want %d (one Write, no chunking)", ur.ContentLength, want.Len())
	}
}

// TestTileBinaryNegotiation: Accept: application/x-forecache-tile selects
// the binary codec, and the decoded tile carries the same payload as the
// JSON rendering (proved by re-encoding it to the canonical JSON body).
func TestTileBinaryNegotiation(t *testing.T) {
	ec := tile.NewEncodedCache(0, nil)
	_, ts := testServer(t, Config{Encoded: ec})
	_, plain := getTileRaw(t, ts, "b0", nil)
	resp, body := getTileRaw(t, ts, "b1", map[string]string{"Accept": tile.BinaryContentType})
	if ct := resp.Header.Get("Content-Type"); ct != tile.BinaryContentType {
		t.Fatalf("Content-Type = %q, want %q", ct, tile.BinaryContentType)
	}
	if vary := resp.Header.Values("Vary"); len(vary) == 0 ||
		!strings.Contains(strings.Join(vary, ","), "Accept") {
		t.Fatalf("Vary = %q, want Accept", vary)
	}
	tl, err := tile.DecodeBinary(body)
	if err != nil {
		t.Fatalf("DecodeBinary: %v", err)
	}
	reJSON, err := tl.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reJSON, plain) {
		t.Fatalf("binary tile does not match JSON rendering:\njson:     %q\nvia-bin:  %q", plain, reJSON)
	}
}

// TestTileGzipNegotiation: Accept-Encoding: gzip compresses either format,
// and the decompressed bytes are exactly the plain cached body.
func TestTileGzipNegotiation(t *testing.T) {
	ec := tile.NewEncodedCache(0, nil)
	_, ts := testServer(t, Config{Encoded: ec})
	for _, accept := range []string{"", tile.BinaryContentType} {
		hdr := map[string]string{}
		if accept != "" {
			hdr["Accept"] = accept
		}
		_, plain := getTileRaw(t, ts, "gz-plain-"+accept, hdr)
		hdr["Accept-Encoding"] = "gzip"
		resp, packed := getTileRaw(t, ts, "gz-packed-"+accept, hdr)
		if enc := resp.Header.Get("Content-Encoding"); enc != "gzip" {
			t.Fatalf("accept=%q: Content-Encoding = %q, want gzip", accept, enc)
		}
		zr, err := gzip.NewReader(bytes.NewReader(packed))
		if err != nil {
			t.Fatalf("accept=%q: %v", accept, err)
		}
		unpacked, err := io.ReadAll(zr)
		if err != nil {
			t.Fatalf("accept=%q: %v", accept, err)
		}
		if !bytes.Equal(unpacked, plain) {
			t.Fatalf("accept=%q: gunzipped body differs from plain body", accept)
		}
	}
	// Explicit refusal keeps the body uncompressed.
	resp, _ := getTileRaw(t, ts, "gz-refuse", map[string]string{"Accept-Encoding": "gzip;q=0"})
	if enc := resp.Header.Get("Content-Encoding"); enc != "" {
		t.Fatalf("gzip;q=0 still compressed (Content-Encoding %q)", enc)
	}
}

// TestClientBinaryNegotiationEquivalence: a NegotiateBinary client gets the
// same tile as a default JSON client, and a default client is unaffected by
// the server's encoded cache.
func TestClientBinaryNegotiationEquivalence(t *testing.T) {
	_, ts := testServer(t, Config{Encoded: tile.NewEncodedCache(0, nil)})
	root := tile.Coord{}
	jc := client.New(ts.URL, "json")
	jt, _, err := jc.Tile(root)
	if err != nil {
		t.Fatal(err)
	}
	bc := client.New(ts.URL, "bin")
	bc.NegotiateBinary(true)
	bt, _, err := bc.Tile(root)
	if err != nil {
		t.Fatal(err)
	}
	if bt.Coord != jt.Coord || bt.Size != jt.Size || len(bt.Data) != len(jt.Data) {
		t.Fatalf("binary tile %+v != json tile %+v", bt, jt)
	}
	for a := range jt.Data {
		for i := range jt.Data[a] {
			if bt.Data[a][i] != jt.Data[a][i] {
				t.Fatalf("attr %d cell %d: %v != %v", a, i, bt.Data[a][i], jt.Data[a][i])
			}
		}
	}
}

// TestMetricsExposeEncodedCacheFamilies: the /metrics exposition carries
// the forecache_tile_* families, passes the strict format validator, and
// the hit counter grows on repeated requests.
func TestMetricsExposeEncodedCacheFamilies(t *testing.T) {
	pipe := obs.NewPipeline(obs.Config{})
	ec := tile.NewEncodedCache(0, pipe.ObserveTileEncode)
	_, ts := testServer(t, Config{Encoded: ec, Metrics: true, Obs: pipe})
	getTileRaw(t, ts, "m0", nil)
	getTileRaw(t, ts, "m1", map[string]string{"Accept": tile.BinaryContentType})
	scrape := func() map[string]float64 {
		resp, err := ts.Client().Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return validatePromText(t, string(body))
	}
	first := scrape()
	for _, name := range []string{
		"forecache_tile_encode_cache_hits_total",
		"forecache_tile_encode_misses_total",
		"forecache_tile_encoded_cache_evicted_total",
		"forecache_tile_encoded_cache_entries",
		"forecache_tile_encoded_cache_bytes",
		"forecache_tile_encode_duration_seconds_count",
		"forecache_tile_response_bytes_count",
	} {
		if _, ok := first[name]; !ok {
			t.Errorf("metric %s missing from exposition", name)
		}
	}
	if first["forecache_tile_encode_misses_total"] < 2 {
		t.Fatalf("misses = %v after two differently-negotiated requests", first["forecache_tile_encode_misses_total"])
	}
	getTileRaw(t, ts, "m2", nil) // warm repeat
	second := scrape()
	if second["forecache_tile_encode_cache_hits_total"] <= first["forecache_tile_encode_cache_hits_total"] {
		t.Fatalf("hits did not grow on a warm repeat: %v -> %v",
			first["forecache_tile_encode_cache_hits_total"], second["forecache_tile_encode_cache_hits_total"])
	}
	if second["forecache_tile_encode_misses_total"] != first["forecache_tile_encode_misses_total"] {
		t.Fatalf("warm repeat re-encoded: misses %v -> %v",
			first["forecache_tile_encode_misses_total"], second["forecache_tile_encode_misses_total"])
	}
}

// TestStreamPayloadEncodedOncePerTile: with the deployment-wide encoded
// cache wired into the push registry, re-attaching a stream (backfill
// replay) must not re-encode tiles — the encode counter is flat across
// attachments while every frame stays decodable by the updated client —
// and a binary stream is cut from the very bodies /tile memoizes.
func TestStreamPayloadEncodedOncePerTile(t *testing.T) {
	ec := tile.NewEncodedCache(0, nil)
	_, ts, sched, _ := pushTestServer(t, push.Config{Encoded: ec}, Config{Encoded: ec})
	frames, _ := attachStream(t, ts, "u1")

	resp, err := ts.Client().Get(ts.URL + "/tile?level=0&y=0&x=0&session=u1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	sched.Drain()
	f, ok := waitFrame(t, frames, 5*time.Second)
	if !ok {
		t.Fatal("stream ended before any tile frame")
	}
	if f.Tile == nil {
		t.Fatalf("tile frame not decodable: %+v", f)
	}
	baseline := ec.Stats().Misses

	// Two reconnects, each replaying the cached predictions as backfill.
	for round := 0; round < 2; round++ {
		refreshed, _ := attachStream(t, ts, "u1")
		bf, ok := waitFrame(t, refreshed, 5*time.Second)
		if !ok {
			t.Fatalf("round %d: stream ended before backfill", round)
		}
		if !bf.Backfill || bf.Tile == nil {
			t.Fatalf("round %d: backfill frame = %+v", round, bf)
		}
		if got := ec.Stats().Misses; got != baseline {
			t.Fatalf("round %d: attaching a stream re-encoded tiles: misses %d -> %d",
				round, baseline, got)
		}
	}
	if st := ec.Stats(); st.Hits == 0 {
		t.Fatalf("backfill replays never hit the encoded cache: %+v", st)
	}

	// Binary framing shares the pull path's bodies: a tile pushed on a
	// binary+gzip stream and pulled as binary+gzip costs exactly two
	// encoder runs — FCT1, then its gzip — and never a JSON entry.
	t.Run("binary", func(t *testing.T) {
		ec := tile.NewEncodedCache(0, nil)
		_, ts, sched, reg := pushTestServer(t, push.Config{Encoded: ec}, Config{Encoded: ec})
		frames, resp := attachStreamWith(t, ts, "b1", binaryGzip)
		if ct := resp.Header.Get("Content-Type"); ct != push.BinaryContentType {
			t.Fatalf("stream content type = %q", ct)
		}
		getTileRaw(t, ts, "b1", binaryGzip)
		sched.Drain()
		pushed := reg.Stats().Pushed
		if pushed == 0 {
			t.Fatal("nothing pushed")
		}
		var last push.Frame
		for i := 0; i < pushed; i++ {
			var ok bool
			if last, ok = waitFrame(t, frames, 5*time.Second); !ok {
				t.Fatalf("stream ended after %d of %d frames", i, pushed)
			}
		}
		want := int64(2 * (1 + pushed)) // the pulled root and every pushed tile
		if st := ec.Stats(); st.Misses != want || int64(st.Entries) != want {
			t.Fatalf("after 1 pull and %d binary pushes: %+v, want %d encoder runs and entries", pushed, st, want)
		}
		// Pulling a pushed tile (from a session without a stream, so nothing
		// new is pushed) is served from the bytes the frame was cut from.
		u := fmt.Sprintf("%s/tile?level=%d&y=%d&x=%d&session=b2", ts.URL, last.Coord.Level, last.Coord.Y, last.Coord.X)
		req, err := http.NewRequest(http.MethodGet, u, nil)
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range binaryGzip {
			req.Header.Set(k, v)
		}
		pull, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		pull.Body.Close()
		sched.Drain()
		if st := ec.Stats(); pull.StatusCode != http.StatusOK || st.Misses != want || int64(st.Entries) != want {
			t.Fatalf("pulling pushed tile %v: status %d, %+v, want still %d encoder runs", last.Coord, pull.StatusCode, st, want)
		}
	})
}

// headerOnlyWriter is a ResponseWriter that keeps nothing, so a handler's
// own allocations are all a measurement sees.
type headerOnlyWriter struct{ h http.Header }

func (w headerOnlyWriter) Header() http.Header         { return w.h }
func (w headerOnlyWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w headerOnlyWriter) WriteHeader(int)             {}

// TestUncachedTileBodyIsPooled: without an encoded cache every response
// encodes its tile afresh, but into a reused buffer — a response allocates
// far less than encoding the body into a new one does — and the bytes are
// still exactly Tile.EncodeJSON's.
func TestUncachedTileBodyIsPooled(t *testing.T) {
	srv, _ := testServer(t, Config{})
	root := &tile.Tile{Size: 64, Attrs: []string{"v"}, Data: [][]float64{make([]float64, 64*64)}}
	for i := range root.Data[0] {
		root.Data[0][i] = float64(i) / 7
	}
	want, err := root.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodGet, "/tile?level=0&y=0&x=0", nil)
	for i := 0; i < 3; i++ { // a reused buffer must not leak the previous body
		rec := httptest.NewRecorder()
		srv.writeTile(rec, req, root.Coord, root)
		if !bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("response %d differs from EncodeJSON:\nwant: %q\ngot:  %q", i, want, rec.Body.Bytes())
		}
	}
	perResponse := func(respond func(w http.ResponseWriter)) uint64 {
		const runs = 200
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			respond(headerOnlyWriter{http.Header{}})
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	fresh := perResponse(func(w http.ResponseWriter) {
		body, _ := root.EncodeJSON()
		_, _ = w.Write(body)
	})
	pooled := perResponse(func(w http.ResponseWriter) { srv.writeTile(w, req, root.Coord, root) })
	// Half, not a tenth: under -race sync.Pool drops a quarter of its Puts.
	if pooled > fresh/2 {
		t.Errorf("an uncached response allocates %d bytes, a fresh EncodeJSON %d: the body buffer is not reused", pooled, fresh)
	}
}
