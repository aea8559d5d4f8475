package forecache

import (
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"forecache/internal/client"
)

// TestPushDeliveryAcceptance is the issue's acceptance test for the push
// tentpole. Replays of the same pan-heavy study trace:
//
//	pull      Push off — the baseline middleware
//	detached  Push on, but the session never attaches a stream
//	streamed  Push on with a live client stream and slot buffer (SSE)
//	binary    the same over binary frames: BinaryTiles on, NegotiateBinary
//	mixed     NegotiateBinary against the server without BinaryTiles: SSE
//
// The streamed replays must make the pinned 22 of 27 tiles available
// client-side BEFORE they are requested (push lead time >= 0), which pull
// mode can never do — whichever framing carries them. Meanwhile the server-observed hit/miss
// sequence must be bit-identical across all three replays: push is a
// delivery channel, not a behavior change, so the pull path — and with it
// the suite's pinned replay hit rates — cannot move.
func TestPushDeliveryAcceptance(t *testing.T) {
	ds, traces := testWorld(t)
	// Task-3 traces (user-major order: user u's task 3 is trace 3u+2) are
	// the paper's pan-heavy workload, where prefetching actually leads the
	// viewer — the case push delivery exists for.
	replay := []*Trace{traces[2], traces[5]}

	mkServer := func(pushOn, binaryTiles bool) (*Server, *httptest.Server) {
		srv, err := ds.NewServer(traces, MiddlewareConfig{
			K: 5, AsyncPrefetch: true, PrefetchWorkers: 4, Push: pushOn, BinaryTiles: binaryTiles,
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv)
		t.Cleanup(ts.Close)
		t.Cleanup(srv.Close)
		return srv, ts
	}

	// run replays the traces in fresh sessions and returns the hit/miss
	// sequence plus how many requests were answered from the client's
	// push-stream slot buffer.
	run := func(srv *Server, ts *httptest.Server, prefix string, attach, negotiate bool) (hits []bool, streamed, total int) {
		sched := srv.Scheduler()
		for i, tr := range replay {
			c := client.New(ts.URL, fmt.Sprintf("%s-%d", prefix, i))
			c.NegotiateBinary(negotiate)
			var base int
			if attach {
				if err := c.Attach(); err != nil {
					t.Fatal(err)
				}
				// Registry counters are cumulative across the run's sessions;
				// frames enqueued before this attach belong to earlier ones.
				base = enqueued(srv)
			}
			for _, req := range tr.Requests {
				if attach {
					// Drain() guarantees every completed prefetch's frame is
					// enqueued; wait until the client has received them all so
					// slot-buffer consumption is deterministic.
					waitStreamed(t, srv, c, base)
				}
				_, info, err := c.Tile(req.Coord)
				if err != nil {
					t.Fatalf("%s trace %d %v: %v", prefix, i, req.Coord, err)
				}
				hits = append(hits, info.Hit)
				total++
				if info.Streamed {
					streamed++
				}
				sched.Drain()
			}
			if attach {
				c.Detach()
			}
		}
		return hits, streamed, total
	}

	pullSrv, pullTS := mkServer(false, false)
	pullHits, pullStreamed, _ := run(pullSrv, pullTS, "pull", false, false)

	pushSrv, pushTS := mkServer(true, false)
	detHits, detStreamed, _ := run(pushSrv, pushTS, "detached", false, false)
	strHits, strStreamed, total := run(pushSrv, pushTS, "streamed", true, false)
	sseBytes := pushSrv.Push().Stats().Bytes
	mixHits, mixStreamed, _ := run(pushSrv, pushTS, "mixed", true, true)

	binSrv, binTS := mkServer(true, true)
	binHits, binStreamed, _ := run(binSrv, binTS, "binary", true, true)

	if pullStreamed != 0 || detStreamed != 0 {
		t.Fatalf("streamed tiles without a stream: pull=%d detached=%d", pullStreamed, detStreamed)
	}
	// Strictly better time-to-tile-available: the same pinned share of
	// each streamed replay's tiles was already on the client when requested.
	for name, got := range map[string]int{"streamed": strStreamed, "mixed": mixStreamed, "binary": binStreamed} {
		if got != 22 || total != 27 {
			t.Errorf("%s replay: %d/%d tiles available before request, want 22/27", name, got, total)
		}
	}
	// The binary replay really ran in binary frames: the same frames in
	// well under half the bytes.
	if binBytes := binSrv.Push().Stats().Bytes; sseBytes == 0 || binBytes == 0 || 2*binBytes > sseBytes {
		t.Errorf("stream bytes: sse %d, binary %d, want binary under half", sseBytes, binBytes)
	}

	// Bit-identical server behavior: the hit/miss sequence must not move,
	// whether push is compiled out of the deployment, idle, or live in
	// either framing.
	for name, hits := range map[string][]bool{"detached": detHits, "streamed": strHits, "mixed": mixHits, "binary": binHits} {
		if len(hits) != len(pullHits) {
			t.Fatalf("replay lengths diverged: pull %d, %s %d", len(pullHits), name, len(hits))
		}
		for i := range pullHits {
			if pullHits[i] != hits[i] {
				t.Fatalf("request %d hit/miss diverged: pull=%v %s=%v", i, pullHits[i], name, hits[i])
			}
		}
	}

	// The push metrics saw the traffic.
	st := pushSrv.Push().Stats()
	if st.Pushed == 0 || st.Consumed == 0 {
		t.Fatalf("push registry stats = %+v, want pushed and consumed traffic", st)
	}
}

// enqueued counts the frames ever placed on any stream's channel. Pushed
// is exactly that: it includes backfills (an attach that races the first
// request replays its prefetches) and excludes drops for a full buffer.
func enqueued(srv *Server) int {
	return srv.Push().Stats().Pushed
}

// waitStreamed blocks until the client has received every frame the
// server's registry has enqueued for it since base.
func waitStreamed(t *testing.T, srv *Server, c *client.Client, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if c.PushStats().Frames >= enqueued(srv)-base {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("client never caught up with the enqueued frames")
}
