package server

import (
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"forecache/internal/backend"
	"forecache/internal/core"
	"forecache/internal/obs"
	"forecache/internal/prefetch"
	"forecache/internal/push"
	"forecache/internal/recommend"
	"forecache/internal/tile"
)

// scrapeChecker holds the accounting properties every /metrics scrape of a
// deployment must satisfy, whatever happened since the previous one: no
// counter-like sample (*_total, histogram *_count and *_bucket) ever reads
// lower than before or disappears, and each per-shard family sums to its
// deployment total within the scrape.
type scrapeChecker struct {
	t    *testing.T
	srv  *Server
	prev map[string]float64
}

// shardSums pairs a per-shard family with the total it must sum to.
var shardSums = [][2]string{
	{"forecache_shard_sessions", "forecache_sessions"},
	{"forecache_shard_sessions_evicted_total", "forecache_sessions_evicted_total"},
	{"forecache_prefetch_shard_queued_total", "forecache_prefetch_queued_total"},
	{"forecache_prefetch_shard_completed_total", "forecache_prefetch_completed_total"},
	{"forecache_prefetch_shard_pending", "forecache_prefetch_pending"},
}

func isCounterSample(key string) bool {
	name, _, _ := strings.Cut(key, "{")
	return strings.HasSuffix(name, "_total") || strings.HasSuffix(name, "_count") || strings.HasSuffix(name, "_bucket")
}

// scrape validates one exposition against the properties and returns it.
// Nothing is drained first: the session tier and the scheduler each render
// their totals and per-shard series from one pass over the shards, so the
// sums hold in every scrape, not only at rest.
func (c *scrapeChecker) scrape(step string) map[string]float64 {
	c.t.Helper()
	cur := scrapeMetrics(c.t, c.srv)
	for key, was := range c.prev {
		if !isCounterSample(key) {
			continue
		}
		now, ok := cur[key]
		if !ok {
			c.t.Errorf("after %s: counter sample %s disappeared (was %v)", step, key, was)
		} else if now < was {
			c.t.Errorf("after %s: %s went backwards, %v -> %v", step, key, was, now)
		}
	}
	for _, pair := range shardSums {
		sum, n := 0.0, 0
		for key, v := range cur {
			if strings.HasPrefix(key, pair[0]+`{shard="`) {
				sum += v
				n++
			}
		}
		if n != c.srv.NumShards() {
			c.t.Errorf("after %s: %s has %d series, want one per shard (%d)", step, pair[0], n, c.srv.NumShards())
		}
		if total, ok := cur[pair[1]]; !ok || sum != total {
			c.t.Errorf("after %s: %s sums to %v, %s reads %v", step, pair[0], sum, pair[1], total)
		}
	}
	c.prev = cur
	return cur
}

// TestCountersMonotoneAndShardSumsHold drives one deployment per
// configuration — {1, 4} shards x {pull, push over SSE, push over a binary
// stream} — through everything that retires or rebuilds state (requests,
// /reset, eviction by cap, eviction by TTL, a stream detach and re-attach,
// Close) and checks the scrape properties after every step, and in every
// scrape taken while prefetches are held in flight and then flow under
// steady traffic.
func TestCountersMonotoneAndShardSumsHold(t *testing.T) {
	streams := map[string]map[string]string{
		"pull":        nil,
		"push-sse":    {},
		"push-binary": binaryGzip,
	}
	for _, shards := range []int{1, 4} {
		for mode, headers := range streams {
			t.Run(fmt.Sprintf("shards=%d/%s", shards, mode), func(t *testing.T) {
				pyr := testPyramid(t)
				db := backend.NewDBMS(pyr, backend.DefaultLatency(), nil)
				pipe := obs.NewPipeline(obs.Config{})
				fc := prefetch.NewFeedbackCollector(4)
				cfg := Config{Shards: shards, MaxSessions: 8, SessionTTL: time.Minute, Obs: pipe, Metrics: true}
				pcfg := prefetch.Config{Shards: shards, Workers: 4, Utility: fc, Obs: pipe}
				if headers != nil {
					cfg.Encoded = tile.NewEncodedCache(0, pipe.ObserveTileEncode)
					cfg.Push = push.NewRegistry(push.Config{Obs: pipe, Encoded: cfg.Encoded})
					pcfg.Push = cfg.Push
				}
				// Gated until the under-load step below opens it for good.
				store := &gatedStore{Store: db, gate: make(chan struct{}), entered: make(chan struct{})}
				sched := prefetch.NewScheduler(store, pcfg)
				cfg.Scheduler = sched
				factory := func(session string) (*core.Engine, error) {
					m := recommend.NewMomentum()
					return core.NewEngine(db, nil, core.SinglePolicy{Model: m.Name()}, []recommend.Model{m},
						core.Config{K: 4, Scheduler: sched.Shard(session), Session: session, Feedback: fc, Obs: pipe})
				}
				srv := New(Meta{}, factory, cfg)
				var elapsed atomic.Int64 // the now hook's offset; stream handlers read it too
				base := time.Unix(1000, 0)
				srv.now = func() time.Time { return base.Add(time.Duration(elapsed.Load())) }
				ts := httptest.NewServer(srv)
				t.Cleanup(ts.Close)
				t.Cleanup(srv.Close)

				tileReq := func(session string, c tile.Coord) {
					t.Helper()
					rec := httptest.NewRecorder()
					srv.ServeHTTP(rec, httptest.NewRequest("GET",
						fmt.Sprintf("/tile?session=%s&level=%d&y=%d&x=%d", session, c.Level, c.Y, c.X), nil))
					if rec.Code != 200 {
						t.Fatalf("tile %s %v: %d %s", session, c, rec.Code, rec.Body)
					}
				}
				attach := func() func() {
					if headers == nil {
						return func() {}
					}
					_, resp := attachStreamWith(t, ts, "walker-0", headers)
					return func() {
						resp.Body.Close()
						for cfg.Push.Stats().Open != 0 {
							time.Sleep(time.Millisecond)
						}
					}
				}
				check := &scrapeChecker{t: t, srv: srv}
				check.scrape("construction")

				// Under load. The store holds every prefetch, so the first
				// scrape is certain to find fetches in flight; then the gate
				// opens under steady traffic, and every scrape taken while the
				// counters move must still add up — one that visited the shards
				// once for the totals and again for the series would not.
				for s := 0; s < 4; s++ {
					tileReq(fmt.Sprintf("busy-%d", s), tile.Coord{})
				}
				<-store.entered
				if m := check.scrape("prefetches held in flight"); m["forecache_prefetch_inflight"] == 0 {
					t.Fatal("the gated store holds no prefetch in flight")
				}
				close(store.gate)
				stop := make(chan struct{})
				var traffic sync.WaitGroup
				traffic.Add(1)
				go func() {
					defer traffic.Done()
					for i := 1; ; i++ { // root <-> its NW child, one legal move at a time
						c := tile.Coord{}
						if i%2 == 1 {
							c = c.Child(tile.NW)
						}
						for s := 0; s < 4; s++ {
							select {
							case <-stop:
								return
							default:
							}
							rec := httptest.NewRecorder()
							srv.ServeHTTP(rec, httptest.NewRequest("GET",
								fmt.Sprintf("/tile?session=busy-%d&level=%d&y=%d&x=%d", s, c.Level, c.Y, c.X), nil))
							if rec.Code != 200 {
								t.Errorf("tile busy-%d %v: %d %s", s, c, rec.Code, rec.Body)
								return
							}
						}
					}
				}()
				for i := 0; i < 50; i++ {
					check.scrape("prefetches flowing")
				}
				close(stop)
				traffic.Wait()

				detach := attach()
				walk := []tile.Coord{{}, tile.Coord{}.Child(tile.NW), tile.Coord{}.Child(tile.NW).Child(tile.SE), tile.Coord{}.Child(tile.NW), {}}
				for _, c := range walk {
					for s := 0; s < 6; s++ {
						tileReq(fmt.Sprintf("walker-%d", s), c)
					}
					sched.Drain() // let the prefetches land so the next step hits them
				}
				m := check.scrape("requests")
				if m["forecache_cache_hits_total"] == 0 || m["forecache_prefetch_completed_total"] == 0 {
					t.Fatalf("the walk exercised nothing: hits %v, prefetches completed %v",
						m["forecache_cache_hits_total"], m["forecache_prefetch_completed_total"])
				}

				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, httptest.NewRequest("POST", "/reset?session=walker-1", nil))
				if rec.Code != 204 {
					t.Fatalf("reset: %d", rec.Code)
				}
				check.scrape("/reset")

				for i := 0; i < 30; i++ {
					tileReq(fmt.Sprintf("crowd-%d", i), tile.Coord{})
				}
				if m = check.scrape("eviction by cap"); m["forecache_sessions_evicted_total"] == 0 {
					t.Fatal("30 sessions over a cap of 8 evicted nobody")
				}

				elapsed.Store(int64(2 * time.Minute))
				for i := 0; i < 16; i++ { // enough ids to touch, and so sweep, every shard
					tileReq(fmt.Sprintf("late-%d", i), tile.Coord{})
					// The cap alone would have left late-0's shard full; only the
					// TTL sweep empties it of everyone else.
					if home := srv.ring.Locate("late-0"); i == 0 && srv.gather(false).shardSessions[home] != 1 {
						t.Fatal("two idle minutes past a one-minute TTL evicted nobody")
					}
				}
				check.scrape("eviction by TTL")

				detach()
				check.scrape("stream detach")
				next := tile.Coord{} // any coordinate, if the TTL sweep reached walker-0's shard
				if srv.hasSession("walker-0") {
					next = next.Child(tile.NW) // else one move on from where its walk ended
				}
				attach()
				tileReq("walker-0", next)
				check.scrape("stream re-attach")

				srv.Close()
				if m = check.scrape("Close"); m["forecache_server_closed"] != 1 || m["forecache_sessions"] != 0 {
					t.Errorf("after Close: closed = %v sessions = %v, want 1 and 0",
						m["forecache_server_closed"], m["forecache_sessions"])
				}
			})
		}
	}
}
