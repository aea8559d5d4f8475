package server

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"forecache/internal/backend"
	"forecache/internal/core"
	"forecache/internal/obs"
	"forecache/internal/prefetch"
	"forecache/internal/recommend"
)

// shardedTestServer wires the full sharded deployment shape: an N-shard
// session tier over an N-shard prefetch pipeline sharing one DBMS.
func shardedTestServer(t *testing.T, shards int, cfg Config) (*Server, *prefetch.Scheduler) {
	t.Helper()
	pyr := testPyramid(t)
	db := backend.NewDBMS(pyr, backend.DefaultLatency(), nil)
	sched := prefetch.NewScheduler(db, prefetch.Config{Shards: shards, Workers: 4, QueuePerSession: 8})
	factory := func(session string) (*core.Engine, error) {
		m := recommend.NewMomentum()
		return core.NewEngine(db, nil, core.SinglePolicy{Model: m.Name()},
			[]recommend.Model{m}, core.Config{K: 4, Scheduler: sched.Shard(session), Session: session})
	}
	cfg.Shards, cfg.Scheduler = shards, sched
	srv := New(Meta{Levels: pyr.NumLevels(), TileSize: pyr.TileSize(), Attrs: pyr.Attrs()}, factory, cfg)
	t.Cleanup(srv.Close)
	return srv, sched
}

func getStats(t *testing.T, srv *Server, query string) StatsResponse {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/stats"+query, nil))
	if rec.Code != 200 {
		t.Fatalf("/stats: %d", rec.Code)
	}
	var out StatsResponse
	if err := json.NewDecoder(rec.Body).Decode(&out); err != nil {
		t.Fatalf("decode /stats: %v", err)
	}
	return out
}

// TestShardedSessionsSpread: with several shards, a fleet of sessions
// lands on more than one shard and every request still round-trips.
func TestShardedSessionsSpread(t *testing.T) {
	srv, _ := shardedTestServer(t, 4, Config{})
	for i := 0; i < 16; i++ {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("GET",
			fmt.Sprintf("/tile?level=0&y=0&x=0&session=spread-%d", i), nil))
		if rec.Code != 200 {
			t.Fatalf("tile for session %d: %d %s", i, rec.Code, rec.Body)
		}
	}
	st := getStats(t, srv, "")
	if st.Shards != 4 || len(st.ShardSessions) != 4 {
		t.Fatalf("shards = %d with %d per-shard counts, want 4", st.Shards, len(st.ShardSessions))
	}
	if st.Sessions != 16 {
		t.Errorf("sessions = %d, want 16", st.Sessions)
	}
	sum, nonzero := 0, 0
	for _, n := range st.ShardSessions {
		sum += n
		if n > 0 {
			nonzero++
		}
	}
	if sum != st.Sessions {
		t.Errorf("shard_sessions sums to %d, sessions = %d", sum, st.Sessions)
	}
	if nonzero < 2 {
		t.Errorf("16 sessions landed on %d shard(s), want at least 2", nonzero)
	}
}

// TestShardSweepIsolation: the TTL sweep is per-shard — an access routed
// to one shard expires only that shard's idle sessions, so one shard's
// sweep never blocks (or even touches) another shard's table.
func TestShardSweepIsolation(t *testing.T) {
	srv, _ := shardedTestServer(t, 4, Config{SessionTTL: time.Minute})
	clock := time.Unix(1000, 0)
	srv.now = func() time.Time { return clock }

	// Find two sessions on different shards, plus a third on the first's
	// shard to use as the post-expiry accessor.
	var idA, idB string
	for i := 0; i < 64 && idB == ""; i++ {
		id := fmt.Sprintf("iso-%d", i)
		if idA == "" {
			idA = id
			continue
		}
		if srv.shardFor(id) != srv.shardFor(idA) {
			idB = id
		}
	}
	if idB == "" {
		t.Fatal("64 ids all on one shard; ring is broken")
	}
	var accessor string
	for i := 0; i < 256; i++ {
		id := fmt.Sprintf("acc-%d", i)
		if srv.shardFor(id) == srv.shardFor(idA) && id != idA {
			accessor = id
			break
		}
	}
	if accessor == "" {
		t.Fatal("no second id found for idA's shard")
	}

	for _, id := range []string{idA, idB} {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("GET", "/tile?level=0&y=0&x=0&session="+id, nil))
		if rec.Code != 200 {
			t.Fatalf("tile %s: %d", id, rec.Code)
		}
	}

	// Both idle past the TTL; an access on idA's shard sweeps idA only.
	clock = clock.Add(2 * time.Minute)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/tile?level=0&y=0&x=0&session="+accessor, nil))
	if rec.Code != 200 {
		t.Fatalf("tile %s: %d", accessor, rec.Code)
	}
	if srv.hasSession(idA) {
		t.Errorf("expired session %s still alive after a sweep on its shard", idA)
	}
	if !srv.hasSession(idB) {
		t.Errorf("session %s on an unswept shard was evicted by another shard's sweep", idB)
	}
}

// TestCrossShardAggregationUnderChurn: while sessions churn (creation,
// eviction, tile traffic) across all shards, concurrent /stats and
// /metrics scrapes must always see (a) a strictly valid exposition body,
// (b) per-shard series that sum exactly to the deployment totals within
// the same scrape, and (c) monotone counters across scrapes. Run with
// -race this also proves the per-shard locking has no data races.
func TestCrossShardAggregationUnderChurn(t *testing.T) {
	srv, _ := shardedTestServer(t, 4, Config{Metrics: true, MaxSessions: 12})

	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				// More ids than the session cap, so LRU eviction churns the
				// tables (retired baselines grow) while requests land.
				id := fmt.Sprintf("churn-%d-%d", w, i%8)
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, httptest.NewRequest("GET", "/tile?level=0&y=0&x=0&session="+id, nil))
			}
		}(w)
	}

	var prev map[string]float64
	monotone := []string{
		"forecache_sessions_evicted_total",
		"forecache_cache_hits_total",
		"forecache_cache_misses_total",
		"forecache_cache_prefetched_total",
		"forecache_prefetch_queued_total",
		"forecache_prefetch_completed_total",
	}
	for scrape := 0; scrape < 25; scrape++ {
		st := getStats(t, srv, "")
		sum := 0
		for _, n := range st.ShardSessions {
			sum += n
		}
		if sum != st.Sessions {
			t.Fatalf("scrape %d: /stats shard_sessions sums to %d, sessions = %d", scrape, sum, st.Sessions)
		}

		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		values := validatePromText(t, rec.Body.String())

		var shardSess, shardEvicted float64
		for k, v := range values {
			if strings.HasPrefix(k, "forecache_shard_sessions{") {
				shardSess += v
			}
			if strings.HasPrefix(k, "forecache_shard_sessions_evicted_total{") {
				shardEvicted += v
			}
		}
		if shardSess != values["forecache_sessions"] {
			t.Fatalf("scrape %d: shard sessions sum %v != forecache_sessions %v",
				scrape, shardSess, values["forecache_sessions"])
		}
		if shardEvicted != values["forecache_sessions_evicted_total"] {
			t.Fatalf("scrape %d: shard evictions sum %v != forecache_sessions_evicted_total %v",
				scrape, shardEvicted, values["forecache_sessions_evicted_total"])
		}
		if values["forecache_shards"] != 4 {
			t.Fatalf("forecache_shards = %v, want 4", values["forecache_shards"])
		}
		if prev != nil {
			for _, name := range monotone {
				if values[name] < prev[name] {
					t.Fatalf("scrape %d: %s went backwards: %v -> %v", scrape, name, prev[name], values[name])
				}
			}
		}
		prev = values
	}
	close(done)
	wg.Wait()
}

// TestSchedulerShardSeriesExported: for every shard count — one included —
// the per-shard scheduler families appear (with shard labels), pass the
// strict validator, and their queued/completed sums match the deployment
// totals once the pipeline is drained and quiescent.
func TestSchedulerShardSeriesExported(t *testing.T) {
	for _, shards := range []int{1, 2, 3, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			srv, sched := shardedTestServer(t, shards, Config{Metrics: true})
			for i := 0; i < 9; i++ {
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, httptest.NewRequest("GET",
					fmt.Sprintf("/tile?level=0&y=0&x=0&session=series-%d", i), nil))
				if rec.Code != 200 {
					t.Fatalf("tile %d: %d", i, rec.Code)
				}
			}
			sched.Drain()

			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
			values := validatePromText(t, rec.Body.String())

			var queued, completed float64
			for i := 0; i < shards; i++ {
				q, ok := values[fmt.Sprintf(`forecache_prefetch_shard_queued_total{shard="%d"}`, i)]
				if !ok {
					t.Fatalf("missing shard %d queued series", i)
				}
				queued += q
				completed += values[fmt.Sprintf(`forecache_prefetch_shard_completed_total{shard="%d"}`, i)]
			}
			if _, extra := values[fmt.Sprintf(`forecache_prefetch_shard_queued_total{shard="%d"}`, shards)]; extra {
				t.Errorf("per-shard scheduler series beyond shard %d", shards-1)
			}
			if queued == 0 || queued != values["forecache_prefetch_queued_total"] {
				t.Errorf("per-shard queued sums to %v, total %v", queued, values["forecache_prefetch_queued_total"])
			}
			if completed != values["forecache_prefetch_completed_total"] {
				t.Errorf("per-shard completed sums to %v, total %v", completed, values["forecache_prefetch_completed_total"])
			}
			joined, ok := values["forecache_prefetch_cross_shard_coalesced_total"]
			if !ok {
				t.Error("missing forecache_prefetch_cross_shard_coalesced_total")
			}
			if shards == 1 && joined != 0 {
				t.Errorf("one shard reports %v cross-shard joins, want 0", joined)
			}
			if st := getStats(t, srv, ""); st.Scheduler == nil || st.Scheduler.Shards != shards {
				t.Errorf("/stats scheduler = %+v, want Shards %d", st.Scheduler, shards)
			}
		})
	}
}

// TestSingleShardIdenticalRouting: Shards=1 (and the default) keeps every
// session on shard 0 — the pre-sharding layout — and /stats reports the
// single-shard shape.
func TestSingleShardIdenticalRouting(t *testing.T) {
	srv, ts := testServer(t, Config{})
	defer ts.Close()
	if srv.NumShards() != 1 {
		t.Fatalf("default shards = %d, want 1", srv.NumShards())
	}
	for _, id := range []string{"", "default", "alice", "ev\x00il", "日本語"} {
		if got := srv.ring.Locate(id); got != 0 {
			t.Errorf("Locate(%q) = %d on a 1-shard ring, want 0", id, got)
		}
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/tile?level=0&y=0&x=0", nil))
	if rec.Code != 200 {
		t.Fatalf("tile: %d", rec.Code)
	}
	st := getStats(t, srv, "")
	if st.Shards != 1 || len(st.ShardSessions) != 1 || st.ShardSessions[0] != st.Sessions {
		t.Errorf("single-shard stats = shards %d, shard_sessions %v, sessions %d",
			st.Shards, st.ShardSessions, st.Sessions)
	}
}

// TestShardedObsTracing: the obs pipeline stays deployment-wide — traces
// from sessions on different shards land in one buffer.
func TestShardedObsTracing(t *testing.T) {
	pyr := testPyramid(t)
	db := backend.NewDBMS(pyr, backend.DefaultLatency(), nil)
	pipe := obs.NewPipeline(obs.Config{TraceCapacity: 16})
	sched := prefetch.NewScheduler(db, prefetch.Config{Shards: 4, Workers: 4, Obs: pipe})
	factory := func(session string) (*core.Engine, error) {
		m := recommend.NewMomentum()
		return core.NewEngine(db, nil, core.SinglePolicy{Model: m.Name()},
			[]recommend.Model{m}, core.Config{K: 4, Scheduler: sched.Shard(session), Session: session, Obs: pipe})
	}
	srv := New(Meta{Levels: pyr.NumLevels(), TileSize: pyr.TileSize(), Attrs: pyr.Attrs()},
		factory, Config{Shards: 4, Scheduler: sched, Obs: pipe})
	t.Cleanup(srv.Close)

	ids := map[string]bool{}
	for i := 0; i < 8; i++ {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("GET",
			fmt.Sprintf("/tile?level=0&y=0&x=0&session=trace-%d", i), nil))
		if rec.Code != 200 {
			t.Fatalf("tile %d: %d", i, rec.Code)
		}
		if id := rec.Header().Get("X-Trace-ID"); id != "" {
			ids[id] = true
		}
	}
	if len(ids) != 8 {
		t.Errorf("distinct trace ids = %d, want 8", len(ids))
	}
	if got := len(pipe.Traces.Snapshot()); got != 8 {
		t.Errorf("deployment-wide trace buffer holds %d traces, want 8 across all shards", got)
	}
}
