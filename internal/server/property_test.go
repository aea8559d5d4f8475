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
	{"forecache_prefetch_shard_queued_total", "forecache_prefetch_queued_total"},
	{"forecache_prefetch_shard_completed_total", "forecache_prefetch_completed_total"},
	{"forecache_prefetch_shard_pending", "forecache_prefetch_pending"},
}

func isCounterSample(key string) bool {
	name, _, _ := strings.Cut(key, "{")
	return strings.HasSuffix(name, "_total") || strings.HasSuffix(name, "_count") || strings.HasSuffix(name, "_bucket")
}

// scrape validates one exposition against the properties and returns it.
// Nothing is drained first: the scheduler renders its totals and per-shard
// series from one pass over its shards, so the sums hold in every scrape,
// not only at rest.
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
		if shards := c.srv.cfg.Scheduler.Stats().Shards; n != shards {
			c.t.Errorf("after %s: %s has %d series, want one per shard (%d)", step, pair[0], n, shards)
		}
		if total, ok := cur[pair[1]]; !ok || sum != total {
			c.t.Errorf("after %s: %s sums to %v, %s reads %v", step, pair[0], sum, pair[1], total)
		}
	}
	c.prev = cur
	return cur
}

// checkNoOrphans drains the scheduler and checks that no per-session state
// outlives its session: every id the scheduler tracks and every id with an
// open push stream is a live server session.
func checkNoOrphans(t *testing.T, srv *Server, step string) {
	t.Helper()
	srv.cfg.Scheduler.Drain()
	for id := range srv.cfg.Scheduler.Stats().QueueDepths {
		if !srv.hasSession(id) {
			t.Errorf("after %s: the scheduler tracks %q, which is no live session", step, id)
		}
	}
	if srv.cfg.Push != nil {
		for id := range srv.cfg.Push.Stats().DrainRates {
			if !srv.hasSession(id) {
				t.Errorf("after %s: %q has a push stream but is no live session", step, id)
			}
		}
	}
}

// TestCountersMonotoneAndShardSumsHold drives one deployment per
// configuration — {1, 4} shards x {pull, push over SSE, push over a binary
// stream} — through everything that retires or rebuilds state (requests,
// /reset, eviction by cap, eviction by TTL, a stream detach and re-attach,
// Close) and checks the scrape properties after every step, and in every
// scrape taken while prefetches are held in flight and then flow under
// steady traffic. After each step that ends sessions it also checks that
// none of their scheduler or push state outlives them.
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
				cfg := Config{MaxSessions: 8, SessionTTL: time.Minute, Obs: pipe, Metrics: true}
				pcfg := prefetch.Config{Shards: shards, Workers: 4, Utility: fc, Obs: pipe}
				if headers != nil {
					cfg.Encoded = tile.NewEncodedCache(0, pipe.ObserveTileEncode)
					cfg.Push = push.NewRegistry(push.Config{Obs: pipe, Encoded: cfg.Encoded})
				}
				// Gated until the under-load step below opens it for good.
				store := &gatedStore{Store: db, gate: make(chan struct{}), entered: make(chan struct{})}
				sched := prefetch.NewScheduler(store, pcfg)
				cfg.Scheduler = sched
				factory := func(q core.Submitter) (*core.Engine, error) {
					m := recommend.NewMomentum()
					return core.NewEngine(db, nil, core.SinglePolicy{Model: m.Name()}, []recommend.Model{m},
						core.Config{K: 4, Scheduler: q, Feedback: fc, Obs: pipe})
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
				checkNoOrphans(t, srv, "/reset")

				for i := 0; i < 30; i++ {
					tileReq(fmt.Sprintf("crowd-%d", i), tile.Coord{})
				}
				if m = check.scrape("eviction by cap"); m["forecache_sessions_evicted_total"] == 0 {
					t.Fatal("30 sessions over a cap of 8 evicted nobody")
				}
				checkNoOrphans(t, srv, "eviction by cap")

				elapsed.Store(int64(2 * time.Minute))
				tileReq("late", tile.Coord{})
				// The cap alone would have left the table full; only the TTL
				// sweep empties it of everyone else.
				if n := srv.gather(false).sessions; n != 1 {
					t.Fatalf("two idle minutes past a one-minute TTL left %d sessions, want 1", n)
				}
				check.scrape("eviction by TTL")
				checkNoOrphans(t, srv, "eviction by TTL")

				detach()
				check.scrape("stream detach")
				attach()
				tileReq("walker-0", tile.Coord{}) // swept, so any coordinate starts its walk
				check.scrape("stream re-attach")
				checkNoOrphans(t, srv, "stream re-attach")

				srv.Close()
				if m = check.scrape("Close"); m["forecache_server_closed"] != 1 || m["forecache_sessions"] != 0 {
					t.Errorf("after Close: closed = %v sessions = %v, want 1 and 0",
						m["forecache_server_closed"], m["forecache_sessions"])
				}
				checkNoOrphans(t, srv, "Close")
			})
		}
	}
}
