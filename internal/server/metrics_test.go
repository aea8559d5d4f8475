package server

import (
	"fmt"
	"math"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"forecache/internal/backend"
	"forecache/internal/core"
	"forecache/internal/obs"
	"forecache/internal/prefetch"
	"forecache/internal/recommend"
	"forecache/internal/trace"
)

// validatePromText runs the shared strict Prometheus text-format
// validator (obs.ParsePromText — also the live-scrape integration check's
// engine) and fails the test on any format or histogram-consistency
// violation.
func validatePromText(t *testing.T, body string) map[string]float64 {
	t.Helper()
	values, err := obs.ParsePromText(body)
	if err != nil {
		t.Fatalf("exposition body rejected: %v", err)
	}
	return values
}

// metricsServer builds a server with an attached scheduler whose admission
// control uses a (cold) learned utility curve, plus a full observability
// pipeline so the histogram families are exported.
func metricsServer(t *testing.T) (*Server, *prefetch.Scheduler) {
	t.Helper()
	pyr := testPyramid(t)
	db := backend.NewDBMS(pyr, backend.DefaultLatency(), nil)
	fc := prefetch.NewFeedbackCollector(4)
	pipe := obs.NewPipeline(obs.Config{})
	sched := prefetch.NewScheduler(db, prefetch.Config{
		Workers: 2, QueuePerSession: 8, GlobalQueue: 16, Utility: fc, Obs: pipe,
	})
	factory := func(session string) (*core.Engine, error) {
		m := recommend.NewMomentum()
		return core.NewEngine(db, nil, core.SinglePolicy{Model: m.Name()},
			[]recommend.Model{m}, core.Config{K: 4, Scheduler: sched, Session: session, Feedback: fc, Obs: pipe})
	}
	srv := New(Meta{Levels: pyr.NumLevels(), TileSize: pyr.TileSize(), Attrs: pyr.Attrs()},
		factory, Config{Scheduler: sched, Metrics: true, Obs: pipe})
	t.Cleanup(srv.Close)
	return srv, sched
}

func TestMetricsEndpointValidates(t *testing.T) {
	srv, sched := metricsServer(t)
	// Create sessions, including one with a hostile id for label escaping.
	for _, id := range []string{"alice", "bob", `ev"il\ses` + "\nsion`}"} {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("GET", "/tile?level=0&y=0&x=0&session="+escapeQuery(id), nil))
		if rec.Code != 200 {
			t.Fatalf("tile request for %q: %d %s", id, rec.Code, rec.Body)
		}
	}
	sched.Drain()

	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("/metrics: %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type = %q, want the 0.0.4 exposition type", ct)
	}
	values := validatePromText(t, rec.Body.String())

	if values["forecache_sessions"] != 3 {
		t.Errorf("forecache_sessions = %v, want 3", values["forecache_sessions"])
	}
	for _, want := range []string{
		"forecache_cache_hits_total",
		"forecache_cache_misses_total",
		"forecache_cache_hit_ratio",
		"forecache_prefetch_queued_total",
		"forecache_prefetch_pressure",
		"forecache_utility_observations_total",
	} {
		if _, ok := values[want]; !ok {
			t.Errorf("missing metric %s", want)
		}
	}
	// Per-session families carry one sample per live session.
	depths, pressures, curvePoints := 0, 0, 0
	for k := range values {
		switch {
		case strings.HasPrefix(k, "forecache_prefetch_session_queue_depth{"):
			depths++
		case strings.HasPrefix(k, "forecache_prefetch_session_pressure{"):
			pressures++
		case strings.HasPrefix(k, "forecache_utility_position_factor{"):
			curvePoints++
		}
	}
	if depths != 3 || pressures != 3 {
		t.Errorf("per-session samples: %d depths, %d pressures, want 3 each", depths, pressures)
	}
	if curvePoints != 4 {
		t.Errorf("utility curve samples = %d, want 4 (collector positions)", curvePoints)
	}
	// The four histogram families are exported and already passed the
	// validator's histogram-consistency checks above; pin their contents.
	if got := values[`forecache_request_duration_seconds_count{outcome="miss"}`]; got != 3 {
		t.Errorf("request-duration miss count = %v, want 3 (three cold-cache /tile requests)", got)
	}
	for _, key := range []string{
		`forecache_request_duration_seconds_bucket{le="+Inf",outcome="hit"}`,
		`forecache_request_duration_seconds_count{outcome="shed"}`,
		`forecache_prefetch_queue_wait_seconds_count`,
		`forecache_backend_fetch_duration_seconds_count`,
		`forecache_prefetch_lead_time_seconds_count`,
	} {
		if _, ok := values[key]; !ok {
			t.Errorf("missing histogram sample %s", key)
		}
	}
	if values[`forecache_prefetch_queue_wait_seconds_count`] < 1 {
		t.Error("queue-wait histogram empty after a drained prefetch batch")
	}
	if values[`forecache_backend_fetch_duration_seconds_count`] < 1 {
		t.Error("backend-fetch histogram empty after prefetch fetches")
	}
	// The cold curve is the static base^p, exported per position.
	if got := values[`forecache_utility_position_factor{position="1"}`]; math.Abs(got-0.85) > 1e-9 {
		t.Errorf("cold curve position 1 = %v, want 0.85", got)
	}
}

// TestMetricsCountersSurviveEviction: the *_total cache counters are
// lifetime totals — neither evicting a session (its counts fold into the
// retired baseline) nor POST /reset (which zeroes only the session's
// /stats view) may make a Prometheus counter go backwards.
func TestMetricsCountersSurviveEviction(t *testing.T) {
	cases := []struct {
		name    string
		method  string
		disturb string
		// evictions and misses are what the disturbing request itself adds.
		evictions, misses float64
	}{
		// Session b's first tile evicts a (limit 1) and is a miss of its own.
		{"eviction", "GET", "/tile?level=0&y=0&x=0&session=b", 1, 1},
		{"reset", "POST", "/reset?session=a", 0, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv, _ := testServer(t, Config{Metrics: true, MaxSessions: 1})
			do := func(method, path string) *httptest.ResponseRecorder {
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, httptest.NewRequest(method, path, nil))
				return rec
			}
			// Session a accumulates one miss, one hit, prefetches and evictions.
			for _, path := range []string{"/tile?level=0&y=0&x=0&session=a", "/tile?level=1&y=0&x=0&session=a"} {
				if rec := do("GET", path); rec.Code != 200 {
					t.Fatalf("%s: %d", path, rec.Code)
				}
			}
			before := validatePromText(t, do("GET", "/metrics").Body.String())
			if before["forecache_cache_misses_total"] != 1 || before["forecache_cache_hits_total"] != 1 {
				t.Fatalf("before: hits %v misses %v, want 1 and 1",
					before["forecache_cache_hits_total"], before["forecache_cache_misses_total"])
			}
			if rec := do(tc.method, tc.disturb); rec.Code >= 300 {
				t.Fatalf("%s %s: %d", tc.method, tc.disturb, rec.Code)
			}
			after := validatePromText(t, do("GET", "/metrics").Body.String())
			if got := after["forecache_sessions_evicted_total"]; got != tc.evictions {
				t.Fatalf("evicted = %v, want %v", got, tc.evictions)
			}
			for _, name := range []string{
				"forecache_cache_hits_total", "forecache_cache_misses_total",
				"forecache_cache_prefetched_total", "forecache_cache_evicted_total",
			} {
				if after[name] < before[name] {
					t.Errorf("%s went backwards: %v -> %v", name, before[name], after[name])
				}
			}
			if got, want := after["forecache_cache_misses_total"], before["forecache_cache_misses_total"]+tc.misses; got != want {
				t.Errorf("misses_total = %v, want %v", got, want)
			}
		})
	}
}

// TestMetricsAllocationShares extends the strict-format validation to the
// forecache_allocation_share family: hostile model names must escape
// cleanly, every sample must carry phase+model labels, and — because the
// Shares snapshot is taken under one policy lock hold — each scrape's
// per-phase shares must sum to exactly 1 even while reallocations and
// observations churn concurrently.
func TestMetricsAllocationShares(t *testing.T) {
	pyr := testPyramid(t)
	db := backend.NewDBMS(pyr, backend.DefaultLatency(), nil)
	fc := prefetch.NewFeedbackCollector(4)
	evil := `ev"il\mo` + "\ndel"
	specs := recommend.DefaultSpecs(3, nil, nil)
	base, err := core.NewRegistryPolicy([]recommend.PriorColumn{
		{Model: evil, Claim: specs[0].Prior},
		{Model: "sb_ok", Claim: specs[1].Prior},
	})
	if err != nil {
		t.Fatal(err)
	}
	ap, err := core.NewAdaptivePolicy(base, []string{evil, "sb_ok"}, fc,
		core.AdaptiveConfig{Floor: 0.1, MaxStep: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	factory := func(session string) (*core.Engine, error) {
		m := recommend.NewMomentum()
		return core.NewEngine(db, nil, core.SinglePolicy{Model: m.Name()},
			[]recommend.Model{m}, core.Config{K: 4})
	}
	srv := New(Meta{Levels: pyr.NumLevels(), TileSize: pyr.TileSize(), Attrs: pyr.Attrs()},
		factory, Config{Metrics: true, Allocation: ap})
	t.Cleanup(srv.Close)

	// Populate every phase's share state: two cold (prior shares) and one
	// warmed past reallocation.
	phases := []trace.Phase{trace.Foraging, trace.Navigation, trace.Sensemaking}
	for _, ph := range phases {
		ap.Allocations(ph, 4)
	}
	for i := 0; i < 100; i++ {
		fc.Observe(trace.Navigation, evil, i%4, true)
		fc.Observe(trace.Navigation, "sb_ok", i%4, i%2 == 0)
	}
	ap.Allocations(trace.Navigation, 4)

	// Concurrent churn: observations and reallocations race the scrapes.
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			fc.Observe(phases[i%3], evil, i%4, i%3 == 0)
			ap.Allocations(phases[i%3], 4)
		}
	}()

	shareRe := regexp.MustCompile(`^forecache_allocation_share\{model="((?:[^"\\]|\\.)*)",phase="([^"]*)"\}$`)
	for scrape := 0; scrape < 20; scrape++ {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		if rec.Code != 200 {
			t.Fatalf("/metrics: %d", rec.Code)
		}
		values := validatePromText(t, rec.Body.String())
		perPhase := map[string]float64{}
		models := map[string]map[string]bool{}
		for k, v := range values {
			m := shareRe.FindStringSubmatch(k)
			if m == nil {
				continue
			}
			model, err := strconv.Unquote(`"` + m[1] + `"`)
			if err != nil {
				t.Fatalf("label value %q does not unquote: %v", m[1], err)
			}
			perPhase[m[2]] += v
			if models[m[2]] == nil {
				models[m[2]] = map[string]bool{}
			}
			models[m[2]][model] = true
		}
		if len(perPhase) != 3 {
			t.Fatalf("scrape %d: allocation samples for %d phases, want 3", scrape, len(perPhase))
		}
		for ph, sum := range perPhase {
			if math.Abs(sum-1) > 1e-9 {
				t.Fatalf("scrape %d: phase %s shares sum to %v, want 1 (snapshot not consistent)", scrape, ph, sum)
			}
			if !models[ph][evil] || !models[ph]["sb_ok"] {
				t.Fatalf("scrape %d: phase %s missing models: %v", scrape, ph, models[ph])
			}
		}
	}
	close(done)
	wg.Wait()

	// The exported values match the policy's own snapshot once churn stops.
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	values := validatePromText(t, rec.Body.String())
	for ph, byModel := range ap.Shares() {
		for model, share := range byModel {
			key := fmt.Sprintf(`forecache_allocation_share{model="%s",phase="%s"}`,
				escapeLabel(model), ph.String())
			got, ok := values[key]
			if !ok {
				t.Errorf("missing sample %s", key)
				continue
			}
			if math.Abs(got-share) > 1e-12 {
				t.Errorf("%s = %v, want %v", key, got, share)
			}
		}
	}
}

func TestMetricsAbsentWithoutOption(t *testing.T) {
	srv, _ := testServer(t, Config{})
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 404 {
		t.Errorf("/metrics without Config.Metrics = %d, want 404", rec.Code)
	}
}

func TestMetricsAnswersAfterClose(t *testing.T) {
	srv, _ := metricsServer(t)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/tile?level=0&y=0&x=0", nil))
	if rec.Code != 200 {
		t.Fatalf("tile: %d", rec.Code)
	}
	srv.Close()
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("/metrics after Close = %d, want 200 (operability survives shutdown)", rec.Code)
	}
	values := validatePromText(t, rec.Body.String())
	if values["forecache_server_closed"] != 1 {
		t.Errorf("forecache_server_closed = %v after Close, want 1", values["forecache_server_closed"])
	}
	if values["forecache_sessions"] != 0 {
		t.Errorf("forecache_sessions = %v after Close, want 0", values["forecache_sessions"])
	}
}

func escapeQuery(s string) string {
	var b strings.Builder
	for _, r := range []byte(s) {
		if ('a' <= r && r <= 'z') || ('A' <= r && r <= 'Z') || ('0' <= r && r <= '9') {
			b.WriteByte(r)
		} else {
			fmt.Fprintf(&b, "%%%02X", r)
		}
	}
	return b.String()
}
