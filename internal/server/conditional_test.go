package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"forecache/internal/client"
	"forecache/internal/push"
	"forecache/internal/tile"
)

// TestConditionalTile: a /tile request whose If-None-Match lists this
// server's tag for the coordinate gets 304 with the telemetry headers and no
// body, and its session goes on as if the tile had been sent; every request
// whose header lists no such tag gets the 200 it always got. Both in the
// plain JSON deployment and in the encoded one under binary+gzip.
func TestConditionalTile(t *testing.T) {
	root := tile.Coord{}
	for _, dep := range []struct {
		name    string
		cfg     Config
		headers map[string]string
	}{
		{"json", Config{}, nil},
		{"binary+gzip", Config{Encoded: tile.NewEncodedCache(0, nil)}, binaryGzip},
	} {
		t.Run(dep.name, func(t *testing.T) {
			srv, _ := testServer(t, dep.cfg)
			other, _ := testServer(t, dep.cfg) // a restarted process
			request := func(session string, c tile.Coord, ifNoneMatch string) *httptest.ResponseRecorder {
				t.Helper()
				req := httptest.NewRequest(http.MethodGet, "/tile?session="+session+"&level="+strconv.Itoa(c.Level)+"&y="+strconv.Itoa(c.Y)+"&x="+strconv.Itoa(c.X), nil)
				for k, v := range dep.headers {
					req.Header.Set(k, v)
				}
				if ifNoneMatch != "" {
					req.Header.Set("If-None-Match", ifNoneMatch)
				}
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, req)
				return rec
			}
			ref := request("reference", root, "")
			tag := ref.Header().Get("ETag")
			if ref.Code != http.StatusOK || tag != `W/"`+srv.epoch+`.0.0.0"` || tag != srv.tileTag(root) {
				t.Fatalf("plain request: %d, ETag %q, want 200 and W/\"%s.0.0.0\"", ref.Code, tag, srv.epoch)
			}
			opaque := strings.TrimPrefix(tag, "W/")
			for _, tc := range []struct {
				name, ifNoneMatch string
				want              int
			}{
				{"matching tag", tag, http.StatusNotModified},
				{"strong form of the tag", opaque, http.StatusNotModified},
				{"tag among others", `"x", W/"` + other.epoch + `.0.0.0",` + tag + ` , *`, http.StatusNotModified},
				{"stale epoch", other.tileTag(root), http.StatusOK},
				{"foreign coordinate", srv.tileTag(root.Child(tile.NW)), http.StatusOK},
				{"unterminated tag", strings.TrimSuffix(tag, `"`), http.StatusOK},
				{"epoch alone", `W/"` + srv.epoch + `"`, http.StatusOK},
				{"wildcard", "*", http.StatusOK},
				{"garbage", "\x00;;,,", http.StatusOK},
				{"empty list", " , ", http.StatusOK},
			} {
				session := strings.ReplaceAll(tc.name, " ", "-")
				rec := request(session, root, tc.ifNoneMatch)
				if rec.Code != tc.want {
					t.Errorf("%s (%q): status %d, want %d", tc.name, tc.ifNoneMatch, rec.Code, tc.want)
					continue
				}
				h := rec.Header()
				if h.Get("ETag") != tag || h.Get("X-Cache") == "" || h.Get("X-Phase") == "" || h.Get("X-Latency-Ms") == "" {
					t.Errorf("%s: headers %v, want ETag %s and the telemetry", tc.name, h, tag)
				}
				if vary := strings.Join(h.Values("Vary"), ","); (dep.cfg.Encoded != nil) != (vary == "Accept,Accept-Encoding") {
					t.Errorf("%s: Vary %q", tc.name, vary)
				}
				if tc.want == http.StatusOK {
					if !bytes.Equal(rec.Body.Bytes(), ref.Body.Bytes()) {
						t.Errorf("%s: the 200 body differs from the unconditional one", tc.name)
					}
					continue
				}
				if rec.Body.Len() != 0 || h.Get("Content-Length") != "" || h.Get("Content-Type") != "" {
					t.Errorf("%s: 304 wrote %d body bytes, Content-Length %q, Content-Type %q",
						tc.name, rec.Body.Len(), h.Get("Content-Length"), h.Get("Content-Type"))
				}
				// The engine took the request: the session's next move is legal.
				if next := request(session, root.Child(tile.SE), ""); next.Code != http.StatusOK {
					t.Errorf("%s: the move after the 304 got %d %s", tc.name, next.Code, next.Body)
				}
			}
		})
	}
}

// TestStreamedTileIsRevalidated: a client attached to the push stream pulls
// a pushed tile as a 304 — the server names its epoch on /stream, the client
// pairs it with the coordinate — and the server still closes the
// push-to-consume loop and reports the prefetch hit. A tile the client does
// not hold is pulled with a body as before.
func TestStreamedTileIsRevalidated(t *testing.T) {
	for _, binary := range []bool{false, true} {
		name := "sse"
		cfg := Config{}
		if binary {
			name, cfg.Encoded = "binary+gzip", tile.NewEncodedCache(0, nil)
		}
		t.Run(name, func(t *testing.T) {
			srv, direct, sched, reg := pushTestServer(t, push.Config{}, cfg)
			if _, resp := attachStreamWith(t, direct, "probe", nil); resp.Header.Get("X-Tile-Epoch") != srv.epoch {
				t.Fatalf("/stream X-Tile-Epoch = %q, want %q", resp.Header.Get("X-Tile-Epoch"), srv.epoch)
			}
			var mu sync.Mutex
			var statuses []int
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				rec := &statusRecorder{ResponseWriter: w}
				srv.ServeHTTP(rec, r)
				if r.URL.Path == "/tile" {
					mu.Lock()
					statuses = append(statuses, rec.status)
					mu.Unlock()
				}
			}))
			t.Cleanup(ts.Close)

			c := client.New(ts.URL, "u1")
			c.NegotiateBinary(binary)
			if err := c.Attach(); err != nil {
				t.Fatal(err)
			}
			defer c.Detach()
			if _, info, err := c.Tile(tile.Coord{}); err != nil || info.Streamed {
				t.Fatalf("first tile: %+v %v", info, err)
			}
			sched.Drain()
			// Momentum with K=4 prefetches all four children of the root.
			deadline := time.Now().Add(5 * time.Second)
			for c.PushStats().Frames < 4 && time.Now().Before(deadline) {
				time.Sleep(2 * time.Millisecond)
			}
			got, info, err := c.Tile(tile.Coord{}.Child(tile.NW))
			if err != nil {
				t.Fatal(err)
			}
			if !info.Streamed || !info.Hit || info.Phase == "" || got.Coord != (tile.Coord{}.Child(tile.NW)) {
				t.Fatalf("pushed tile: info %+v, coord %v; want streamed, hit, with a phase", info, got.Coord)
			}
			mu.Lock()
			defer mu.Unlock()
			if len(statuses) != 2 || statuses[0] != http.StatusOK || statuses[1] != http.StatusNotModified {
				t.Fatalf("/tile statuses = %v, want [200 304]", statuses)
			}
			if st := reg.Stats(); st.Consumed != 1 {
				t.Fatalf("registry Consumed = %d after the 304, want 1", st.Consumed)
			}
			if st := c.PushStats(); st.Consumed != 1 {
				t.Fatalf("client Consumed = %d, want 1", st.Consumed)
			}
		})
	}
}

// statusRecorder remembers the status a handler wrote. Unwrap lets the
// stream handler's ResponseController reach the real writer's Flush.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (w *statusRecorder) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusRecorder) Unwrap() http.ResponseWriter { return w.ResponseWriter }
