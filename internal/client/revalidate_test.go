package client

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"forecache/internal/push"
	"forecache/internal/tile"
)

// epochServer is a fake middleware whose nth /stream connection (from 1)
// names epochs[n-1] in X-Tile-Epoch and sends frames(n) as SSE. Every
// connection but the last then drops, so the client reattaches; the last
// stays open. /tile goes to tileHandler. dialled counts the TCP connections
// the server accepted.
func epochServer(t *testing.T, epochs []string, frames func(n int) []push.Frame, tileHandler http.HandlerFunc) (ts *httptest.Server, dialled *atomic.Int64) {
	t.Helper()
	var conns atomic.Int64
	dialled = new(atomic.Int64)
	mux := http.NewServeMux()
	mux.HandleFunc("/tile", tileHandler)
	mux.HandleFunc("/stream", func(w http.ResponseWriter, r *http.Request) {
		n := int(conns.Add(1))
		w.Header().Set("Content-Type", "text/event-stream")
		if n <= len(epochs) {
			w.Header().Set("X-Tile-Epoch", epochs[n-1])
		}
		w.WriteHeader(http.StatusOK)
		for _, f := range frames(n) {
			_, _ = push.Encode(w, f)
		}
		w.(http.Flusher).Flush()
		if n < len(epochs) {
			return
		}
		<-r.Context().Done()
	})
	ts = httptest.NewUnstartedServer(mux)
	ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			dialled.Add(1)
		}
	}
	ts.Start()
	t.Cleanup(ts.Close)
	return ts, dialled
}

// queryCoord is the coordinate a /tile request names.
func queryCoord(r *http.Request) tile.Coord {
	q := r.URL.Query()
	lvl, _ := strconv.Atoi(q.Get("level"))
	y, _ := strconv.Atoi(q.Get("y"))
	x, _ := strconv.Atoi(q.Get("x"))
	return tile.Coord{Level: lvl, Y: y, X: x}
}

// pulledTile answers /tile with a JSON tile for the queried coordinate,
// which differs from pushedTile's, so a test can tell which one Tile
// returned.
func pulledTile(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("X-Cache", "HIT")
	_ = json.NewEncoder(w).Encode(tile.Tile{Coord: queryCoord(r), Size: 1})
}

// tagFor is the ETag the middleware gives c's tile under epoch.
func tagFor(epoch string, c tile.Coord) string {
	return `W/"` + epoch + "." + strconv.Itoa(c.Level) + "." + strconv.Itoa(c.Y) + "." + strconv.Itoa(c.X) + `"`
}

// TestClientUnattachedSendsNoTag: a client that holds no pushed tile has
// nothing to revalidate, so its pulls carry no If-None-Match.
func TestClientUnattachedSendsNoTag(t *testing.T) {
	var sent atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, ok := r.Header["If-None-Match"]; ok {
			sent.Add(1)
		}
		pulledTile(w, r)
	}))
	defer ts.Close()
	c := New(ts.URL, "s")
	for _, coord := range []tile.Coord{{}, {Level: 1}} {
		if _, info, err := c.Tile(coord); err != nil || info.Streamed {
			t.Fatalf("Tile(%v): %+v %v", coord, info, err)
		}
	}
	if n := sent.Load(); n != 0 {
		t.Fatalf("%d pulls carried If-None-Match, want none", n)
	}
}

// TestClientRevalidationIgnored: against a server that ignores
// If-None-Match and answers 200, Tile still sends the slot's tag, returns
// the slot's tile with Streamed set, and drains the body so one connection
// carries every pull.
func TestClientRevalidationIgnored(t *testing.T) {
	coords := []tile.Coord{{Level: 1}, {Level: 1, X: 1}, {Level: 1, Y: 1}, {Level: 1, Y: 1, X: 1}}
	var mu sync.Mutex
	var tags []string
	ts, dialled := epochServer(t, []string{"e1"}, func(int) []push.Frame {
		var fs []push.Frame
		for _, c := range coords {
			fs = append(fs, frameFor(c, false))
		}
		return fs
	}, func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		tags = append(tags, r.Header.Get("If-None-Match"))
		mu.Unlock()
		pulledTile(w, r)
	})
	c := New(ts.URL, "s")
	if err := c.Attach(); err != nil {
		t.Fatal(err)
	}
	defer c.Detach()
	waitFor(t, "every frame", func() bool { return c.PushStats().Frames == len(coords) })
	for _, coord := range coords {
		got, info, err := c.Tile(coord)
		if err != nil {
			t.Fatal(err)
		}
		if !info.Streamed || !info.Hit || !reflect.DeepEqual(got, pushedTile(coord)) {
			t.Fatalf("Tile(%v) = %+v, %+v; want the pushed tile, streamed", coord, got, info)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for i, coord := range coords {
		if tags[i] != tagFor("e1", coord) {
			t.Errorf("pull %d sent If-None-Match %q, want %q", i, tags[i], tagFor("e1", coord))
		}
	}
	// One connection for the stream, one for every pull.
	if n := dialled.Load(); n != 2 {
		t.Errorf("%d connections, want 2", n)
	}
	if st := c.PushStats(); st.Consumed != len(coords) {
		t.Errorf("Consumed = %d, want %d", st.Consumed, len(coords))
	}
}

// TestClientSlotKeepsItsEpoch: a slot delivered before the stream dropped
// keeps the epoch of the stream that delivered it. After a reattach to a
// server with another epoch, it sends its own tag and gets a 200 tagged
// under the new epoch, whose body Tile returns; a slot the new stream
// delivered sends the new tag and gets 304.
func TestClientSlotKeepsItsEpoch(t *testing.T) {
	old, fresh := tile.Coord{Level: 1, X: 1}, tile.Coord{Level: 1, Y: 1}
	var mu sync.Mutex
	sent := map[tile.Coord]string{}
	ts, _ := epochServer(t, []string{"before", "after"}, func(n int) []push.Frame {
		if n == 1 {
			return []push.Frame{frameFor(old, false)}
		}
		return []push.Frame{frameFor(fresh, true)}
	}, func(w http.ResponseWriter, r *http.Request) {
		c := queryCoord(r)
		mu.Lock()
		sent[c] = r.Header.Get("If-None-Match")
		mu.Unlock()
		w.Header().Set("ETag", tagFor("after", c))
		if r.Header.Get("If-None-Match") == tagFor("after", c) {
			w.Header().Set("X-Cache", "HIT")
			w.WriteHeader(http.StatusNotModified)
			return
		}
		pulledTile(w, r)
	})
	c := New(ts.URL, "s")
	if err := c.Attach(); err != nil {
		t.Fatal(err)
	}
	defer c.Detach()
	waitFor(t, "the reattached stream's frame", func() bool {
		st := c.PushStats()
		return st.Reattached >= 1 && st.Frames == 2
	})
	got, info, err := c.Tile(old)
	if err != nil {
		t.Fatal(err)
	}
	if info.Streamed || got.Coord != old || len(got.Attrs) != 0 {
		t.Fatalf("Tile(%v) = %+v, %+v; want the pulled tile, not streamed", old, got, info)
	}
	got, info, err = c.Tile(fresh)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Streamed || !reflect.DeepEqual(got, pushedTile(fresh)) {
		t.Fatalf("Tile(%v) = %+v, %+v; want the pushed tile, streamed", fresh, got, info)
	}
	mu.Lock()
	defer mu.Unlock()
	if sent[old] != tagFor("before", old) || sent[fresh] != tagFor("after", fresh) {
		t.Fatalf("If-None-Match sent: %v; want the old slot under \"before\", the new under \"after\"", sent)
	}
	if st := c.PushStats(); st.Consumed != 1 || st.Buffered != 0 {
		t.Fatalf("stats = %+v, want one consumed and none buffered", st)
	}
}

// TestClientCountsConsumedOnReturn: a slot is counted Consumed only when
// Tile returns its tile. A pull the server answers 500 — or a 304 to a pull
// that named no tag — fails, consumes nothing and keeps the slot; a retry
// of the tagged pull answered 304 then returns the pushed tile.
func TestClientCountsConsumedOnReturn(t *testing.T) {
	held := tile.Coord{Level: 1, X: 1}
	for _, tc := range []struct {
		name   string
		epoch  string
		status int
	}{
		{"500", "e1", http.StatusInternalServerError},
		{"304 unasked", "", http.StatusNotModified},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var pulls atomic.Int64
			ts, _ := epochServer(t, []string{tc.epoch}, func(int) []push.Frame {
				return []push.Frame{frameFor(held, false)}
			}, func(w http.ResponseWriter, r *http.Request) {
				if pulls.Add(1) == 1 {
					w.WriteHeader(tc.status)
					return
				}
				w.WriteHeader(http.StatusNotModified)
			})
			c := New(ts.URL, "s")
			if err := c.Attach(); err != nil {
				t.Fatal(err)
			}
			defer c.Detach()
			waitFor(t, "the frame", func() bool { return c.PushStats().Frames == 1 })
			if _, _, err := c.Tile(held); err == nil {
				t.Fatalf("a %d answer should fail Tile", tc.status)
			}
			if st := c.PushStats(); st.Consumed != 0 || st.Buffered != 1 {
				t.Fatalf("stats = %+v, want nothing consumed and the slot kept", st)
			}
			if tc.epoch == "" {
				return // an untagged retry would be answered 304 unasked again
			}
			got, info, err := c.Tile(held)
			if err != nil {
				t.Fatal(err)
			}
			if !info.Streamed || !reflect.DeepEqual(got, pushedTile(held)) {
				t.Fatalf("retry: Tile = %+v, %+v; want the pushed tile, streamed", got, info)
			}
			if st := c.PushStats(); st.Consumed != 1 || st.Buffered != 0 {
				t.Fatalf("retry: stats = %+v, want one consumed and none buffered", st)
			}
		})
	}
}
