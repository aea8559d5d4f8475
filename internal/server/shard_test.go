package server

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"

	"forecache/internal/backend"
	"forecache/internal/core"
	"forecache/internal/obs"
	"forecache/internal/prefetch"
	"forecache/internal/recommend"
)

// shardedTestServer wires the sharded deployment shape: one session table
// over an N-shard prefetch pipeline sharing one DBMS.
func shardedTestServer(t *testing.T, shards int, cfg Config) (*Server, *prefetch.Scheduler) {
	t.Helper()
	pyr := testPyramid(t)
	db := backend.NewDBMS(pyr, backend.DefaultLatency(), nil)
	sched := prefetch.NewScheduler(db, prefetch.Config{Shards: shards, Workers: 4, QueuePerSession: 8})
	factory := func(q core.Submitter) (*core.Engine, error) {
		m := recommend.NewMomentum()
		return core.NewEngine(db, nil, core.SinglePolicy{Model: m.Name()},
			[]recommend.Model{m}, core.Config{K: 4, Scheduler: q})
	}
	cfg.Scheduler = sched
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

// TestCrossShardAggregationUnderChurn: while sessions churn (creation,
// eviction, tile traffic) over a sharded scheduler, concurrent /stats and
// /metrics scrapes must always see (a) a strictly valid exposition body
// and (b) monotone counters across scrapes. Run with -race this also
// proves the session table and the scheduler shards have no data races.
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
		getStats(t, srv, "")

		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		values := validatePromText(t, rec.Body.String())
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
	checkNoOrphans(t, srv, "churn")
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

// TestShardedObsTracing: the obs pipeline stays deployment-wide — traces
// from sessions on different shards land in one buffer.
func TestShardedObsTracing(t *testing.T) {
	pyr := testPyramid(t)
	db := backend.NewDBMS(pyr, backend.DefaultLatency(), nil)
	pipe := obs.NewPipeline(obs.Config{})
	sched := prefetch.NewScheduler(db, prefetch.Config{Shards: 4, Workers: 4, Obs: pipe})
	factory := func(q core.Submitter) (*core.Engine, error) {
		m := recommend.NewMomentum()
		return core.NewEngine(db, nil, core.SinglePolicy{Model: m.Name()},
			[]recommend.Model{m}, core.Config{K: 4, Scheduler: q, Obs: pipe})
	}
	srv := New(Meta{Levels: pyr.NumLevels(), TileSize: pyr.TileSize(), Attrs: pyr.Attrs()},
		factory, Config{Scheduler: sched, Obs: pipe})
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
