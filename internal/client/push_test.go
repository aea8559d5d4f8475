package client

import (
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"forecache/internal/push"
	"forecache/internal/tile"
)

// waitFor polls cond until it holds or the test deadline budget runs out.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// pushServer builds a fake middleware: /tile serves a JSON tile for any
// coordinate, /stream hands the SSE connection to stream (which runs until
// it returns; connections are numbered from 1).
func pushServer(t *testing.T, stream func(n int, w http.ResponseWriter, r *http.Request)) *httptest.Server {
	return pushServerTyped(t, "text/event-stream", stream)
}

// pushServerTyped is pushServer answering /stream with contentType.
func pushServerTyped(t *testing.T, contentType string, stream func(n int, w http.ResponseWriter, r *http.Request)) *httptest.Server {
	t.Helper()
	var conns atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("/tile", pulledTile)
	mux.HandleFunc("/stream", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", contentType)
		w.WriteHeader(http.StatusOK)
		w.(http.Flusher).Flush()
		stream(int(conns.Add(1)), w, r)
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// pushedTile is the tile the fake stream pushes for c. It differs from
// what the fake /tile serves, so a test can tell which one Tile returned.
func pushedTile(c tile.Coord) *tile.Tile {
	return &tile.Tile{Coord: c, Size: 1, Attrs: []string{"v"}, Data: [][]float64{{1}}}
}

// frameFor is a tile frame for c as Decode hands it over: the payload is
// pushedTile(c)'s JSON body.
func frameFor(c tile.Coord, backfill bool) push.Frame {
	body, err := pushedTile(c).EncodeJSON()
	if err != nil {
		panic(err)
	}
	return push.Frame{
		Type: push.FrameTile, Session: "s", Model: "m", Score: 1, Backfill: backfill,
		Coord: c, Payload: body,
	}
}

// TestClientStreamedTile: a streamed tile lands in the slot buffer, the
// next request for its coordinate consumes the slot exactly once and
// returns the pushed tile, not the pulled body, and heartbeats are counted
// without occupying slots — in either framing, the decoder following the
// response's Content-Type: a negotiating client reads the SSE of a server
// that does not grant binary (mixed fleet) as well as the binary frames of
// one that does.
func TestClientStreamedTile(t *testing.T) {
	c1 := tile.Coord{Level: 1, Y: 0, X: 1}
	sse := func(w http.ResponseWriter) {
		_, _ = push.Encode(w, frameFor(c1, false))
		_, _ = push.Encode(w, push.Frame{Type: push.FrameHeartbeat, Session: "s"})
	}
	binary := func(w http.ResponseWriter) {
		body, err := tile.EncodeBinary(pushedTile(c1))
		if err != nil {
			t.Error(err)
		}
		raw, err := push.AppendBinary(nil, frameFor(c1, false), body, false)
		if err != nil {
			t.Error(err)
		}
		raw, _ = push.AppendBinary(raw, push.Frame{Type: push.FrameHeartbeat}, nil, false)
		_, _ = w.Write(raw)
	}
	for _, tc := range []struct {
		name, contentType string
		negotiate         bool
		frames            func(http.ResponseWriter)
	}{
		{"sse", "text/event-stream", false, sse},
		{"sse to a negotiating client", "text/event-stream", true, sse},
		{"binary", push.BinaryContentType, true, binary},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ts := pushServerTyped(t, tc.contentType, func(n int, w http.ResponseWriter, r *http.Request) {
				if got := r.Header.Get("Accept") == tile.BinaryContentType && r.Header.Get("Accept-Encoding") == "gzip"; got != tc.negotiate {
					t.Errorf("stream request negotiates binary+gzip = %v, want %v (headers %v)", got, tc.negotiate, r.Header)
				}
				tc.frames(w)
				w.(http.Flusher).Flush()
				<-r.Context().Done()
			})
			c := New(ts.URL, "s")
			c.NegotiateBinary(tc.negotiate)
			testStreamedTile(t, c, c1)
		})
	}
}

func testStreamedTile(t *testing.T, c *Client, c1 tile.Coord) {
	if err := c.Attach(); err != nil {
		t.Fatal(err)
	}
	defer c.Detach()
	waitFor(t, "frame+heartbeat", func() bool {
		st := c.PushStats()
		return st.Frames == 1 && st.Heartbeats == 1
	})
	if st := c.PushStats(); st.Buffered != 1 {
		t.Fatalf("stats = %+v, want 1 buffered slot", st)
	}
	got, info, err := c.Tile(c1)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Streamed || !info.Hit {
		t.Fatalf("info = %+v, want Streamed+Hit", info)
	}
	if !reflect.DeepEqual(got, pushedTile(c1)) {
		t.Fatalf("streamed request returned %+v, want the pushed tile", got)
	}
	// The slot was consumed: the same coordinate is a plain fetch now.
	if got, info, err = c.Tile(c1); err != nil || info.Streamed || len(got.Attrs) != 0 {
		t.Fatalf("second request: tile=%+v info=%+v err=%v, want the un-streamed pulled body", got, info, err)
	}
	if st := c.PushStats(); st.Consumed != 1 || st.Rejected != 0 || st.Buffered != 0 {
		t.Fatalf("stats = %+v, want exactly one consumption", st)
	}
}

// TestClientSlotSupersedeAndCap: newest frame for a coordinate supersedes
// its slot in place, and the buffer evicts oldest-first at capacity.
func TestClientSlotSupersedeAndCap(t *testing.T) {
	c := New("http://unused", "s")
	dup := tile.Coord{Level: 7, Y: 7, X: 7}
	c.storeFrame(frameFor(dup, false), "")
	super := frameFor(dup, false)
	super.Score = 9
	c.storeFrame(super, "")
	if st := c.PushStats(); st.Frames != 2 || st.Buffered != 1 || st.Evicted != 0 {
		t.Fatalf("supersede stats = %+v", st)
	}
	c.mu.Lock()
	if got := c.slots[dup].frame.Score; got != 9 {
		c.mu.Unlock()
		t.Fatalf("slot score = %v, newest frame must win", got)
	}
	c.mu.Unlock()

	// Fill to capacity and one past it: the oldest slot (dup, stored
	// first) is the one evicted.
	for i := 0; len(c.slots) < DefaultSlotCap; i++ {
		c.storeFrame(frameFor(tile.Coord{Level: 8, X: i}, false), "")
	}
	c.storeFrame(frameFor(tile.Coord{Level: 9}, false), "")
	st := c.PushStats()
	if st.Buffered != DefaultSlotCap || st.Evicted != 1 {
		t.Fatalf("cap stats = %+v", st)
	}
	if got, _ := c.slotTile(dup); got != nil {
		t.Fatal("oldest slot should have been evicted at capacity")
	}
}

// TestClientRejectsBadSlot: a frame whose framing is intact but whose tile
// does not decode is buffered like any other and rejected only when Tile
// consumes it. The pulled body answers, Streamed is false, the stream stays
// attached, and the bad frame nobody consumes is never decoded.
func TestClientRejectsBadSlot(t *testing.T) {
	bad, unread := tile.Coord{Level: 1, X: 1}, tile.Coord{Level: 1, Y: 1}
	sse := func(w http.ResponseWriter) {
		for _, c := range []tile.Coord{bad, unread} {
			// The tile is for another coordinate than the frame's.
			f := frameFor(c, false)
			f.Payload, f.Tile = nil, pushedTile(tile.Coord{Level: 1})
			_, _ = push.Encode(w, f)
		}
	}
	binary := func(w http.ResponseWriter) {
		var raw []byte
		for _, c := range []tile.Coord{bad, unread} {
			body, err := tile.EncodeBinary(pushedTile(c))
			if err != nil {
				t.Error(err)
			}
			body[len(body)-1] ^= 0xff // break the CRC
			if raw, err = push.AppendBinary(raw, frameFor(c, false), body, false); err != nil {
				t.Error(err)
			}
		}
		_, _ = w.Write(raw)
	}
	for _, tc := range []struct {
		name, contentType string
		frames            func(http.ResponseWriter)
	}{
		{"sse", "text/event-stream", sse},
		{"binary", push.BinaryContentType, binary},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ts := pushServerTyped(t, tc.contentType, func(n int, w http.ResponseWriter, r *http.Request) {
				tc.frames(w)
				w.(http.Flusher).Flush()
				<-r.Context().Done()
			})
			c := New(ts.URL, "s")
			c.NegotiateBinary(tc.contentType == push.BinaryContentType)
			if err := c.Attach(); err != nil {
				t.Fatal(err)
			}
			defer c.Detach()
			waitFor(t, "both frames", func() bool { return c.PushStats().Frames == 2 })
			if st := c.PushStats(); st.Rejected != 0 || st.Buffered != 2 {
				t.Fatalf("stats = %+v before any request, want 2 buffered and none rejected", st)
			}
			got, info, err := c.Tile(bad)
			if err != nil {
				t.Fatal(err)
			}
			if info.Streamed || got.Coord != bad || len(got.Attrs) != 0 {
				t.Fatalf("tile=%+v info=%+v, want the un-streamed pulled body", got, info)
			}
			if st := c.PushStats(); st.Rejected != 1 || st.Consumed != 0 || st.Buffered != 1 || st.Reattached != 0 {
				t.Fatalf("stats = %+v, want one rejected slot, one left and the stream never redialed", st)
			}
		})
	}
}

// TestClientReconnectBackfill: when the stream drops, the client redials
// and the server's backfill frames repopulate the slot buffer.
func TestClientReconnectBackfill(t *testing.T) {
	c1 := tile.Coord{Level: 1, X: 1}
	ts := pushServer(t, func(n int, w http.ResponseWriter, r *http.Request) {
		if n == 1 {
			return // drop the first connection immediately
		}
		_, _ = push.Encode(w, frameFor(c1, true))
		w.(http.Flusher).Flush()
		<-r.Context().Done()
	})
	c := New(ts.URL, "s")
	if err := c.Attach(); err != nil {
		t.Fatal(err)
	}
	defer c.Detach()
	waitFor(t, "reconnect backfill", func() bool {
		st := c.PushStats()
		return st.Reattached >= 1 && st.Backfills == 1
	})
	if got, _ := c.slotTile(c1); got == nil {
		t.Fatal("backfilled tile missing from slot buffer")
	}
}

// TestClientAttachLifecycle: attach errors surface synchronously, double
// attach is refused, and Detach is idempotent and stops the redial loop.
func TestClientAttachLifecycle(t *testing.T) {
	down := New("http://127.0.0.1:1", "s")
	if err := down.Attach(); err == nil {
		t.Fatal("attach to an unreachable server should error")
	}
	down.Detach() // no-op after failed attach

	notFound := httptest.NewServer(http.NotFoundHandler())
	defer notFound.Close()
	if err := New(notFound.URL, "s").Attach(); err == nil {
		t.Fatal("attach against a pull-only server should error")
	}
	html := pushServerTyped(t, "text/html", func(int, http.ResponseWriter, *http.Request) {})
	if err := New(html.URL, "s").Attach(); err == nil {
		t.Fatal("attach to a stream in neither framing should error")
	}

	ts := pushServer(t, func(n int, w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
	})
	c := New(ts.URL, "s")
	if err := c.Attach(); err != nil {
		t.Fatal(err)
	}
	if err := c.Attach(); err == nil {
		t.Fatal("double attach should error")
	}
	done := make(chan struct{})
	go func() { c.Detach(); c.Detach(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Detach did not return")
	}
	if err := c.Attach(); err != nil {
		t.Fatalf("re-attach after Detach: %v", err)
	}
	c.Detach()
}

// TestClientHeldTileStreamedOnce: a tile the registry pushes twice before
// the client consumes it reaches the client in one frame, and Tile still
// answers it from the slot.
func TestClientHeldTileStreamedOnce(t *testing.T) {
	held, other := tile.Coord{Level: 2, X: 1}, tile.Coord{Level: 2, Y: 1}
	reg := push.NewRegistry(push.Config{})
	ts := pushServer(t, func(n int, w http.ResponseWriter, r *http.Request) {
		st := reg.Attach("s")
		for _, c := range []tile.Coord{held, held, other} {
			reg.Push("s", "m", c, 1, pushedTile(c))
		}
		for len(st.Frames()) > 0 {
			_, _ = push.Encode(w, <-st.Frames())
		}
		_, _ = push.Encode(w, push.Frame{Type: push.FrameHeartbeat, Session: "s"})
		w.(http.Flusher).Flush()
		<-r.Context().Done()
	})
	c := New(ts.URL, "s")
	if err := c.Attach(); err != nil {
		t.Fatal(err)
	}
	defer c.Detach()
	waitFor(t, "the stream's heartbeat", func() bool { return c.PushStats().Heartbeats == 1 })
	if st := c.PushStats(); st.Frames != 2 || st.Buffered != 2 {
		t.Fatalf("stats = %+v, want 2 frames for 2 tiles", st)
	}
	got, info, err := c.Tile(held)
	if err != nil || !info.Streamed || !reflect.DeepEqual(got, pushedTile(held)) {
		t.Fatalf("Tile = %+v, %+v, %v; want the streamed tile", got, info, err)
	}
	if st := c.PushStats(); st.Consumed != 1 {
		t.Fatalf("stats = %+v, want one consumption", st)
	}
}
