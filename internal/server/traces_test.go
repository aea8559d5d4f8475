package server

import (
	"encoding/json"
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
	"forecache/internal/recommend"
	"forecache/internal/tile"
)

// slowStore delays user-facing fetches so a request's wall time is
// dominated by the backend — the scenario /debug/traces must attribute.
type slowStore struct {
	backend.Store
	delay time.Duration
}

func (s *slowStore) Fetch(c tile.Coord) (*tile.Tile, error) {
	time.Sleep(s.delay)
	return s.Store.Fetch(c)
}

// tracedServer builds a synchronous-prefetch server with tracing on.
func tracedServer(t *testing.T, store backend.Store) (*Server, *obs.Pipeline) {
	t.Helper()
	pipe := obs.NewPipeline(obs.Config{})
	factory := func(q core.Submitter) (*core.Engine, error) {
		m := recommend.NewMomentum()
		return core.NewEngine(store, nil, core.SinglePolicy{Model: m.Name()},
			[]recommend.Model{m}, core.Config{K: 2, Obs: pipe})
	}
	pyr := store.Pyramid()
	srv := New(Meta{Levels: pyr.NumLevels(), TileSize: pyr.TileSize(), Attrs: pyr.Attrs()},
		factory, Config{Obs: pipe, Metrics: true})
	t.Cleanup(srv.Close)
	return srv, pipe
}

func get(t *testing.T, srv *Server, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec
}

// TestSlowBackendAttribution drives a request whose backend fetch
// dominates its wall time and checks /debug/traces says so: the
// backend_fetch span must account for at least 90% of the trace. Run
// under -race in CI, this also exercises tracing against the detector.
func TestSlowBackendAttribution(t *testing.T) {
	pyr := testPyramid(t)
	store := &slowStore{
		Store: backend.NewDBMS(pyr, backend.DefaultLatency(), nil),
		delay: 50 * time.Millisecond,
	}
	srv, pipe := tracedServer(t, store)

	rec := get(t, srv, "/tile?level=0&y=0&x=0")
	if rec.Code != 200 {
		t.Fatalf("tile: %d %s", rec.Code, rec.Body)
	}
	traceID := rec.Header().Get("X-Trace-ID")
	if traceID == "" {
		t.Fatal("traced request carried no X-Trace-ID header")
	}

	rec = get(t, srv, "/debug/traces?n=5")
	if rec.Code != 200 {
		t.Fatalf("/debug/traces: %d", rec.Code)
	}
	var out TracesResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if out.Capacity != pipe.Traces.Cap() || out.Stored < 1 {
		t.Fatalf("buffer shape: %+v", out)
	}
	var tr *obs.Trace
	for i := range out.Traces {
		if out.Traces[i].ID == traceID {
			tr = &out.Traces[i]
		}
	}
	if tr == nil {
		t.Fatalf("trace %s not in /debug/traces", traceID)
	}
	if tr.Outcome != obs.OutcomeMiss {
		t.Fatalf("outcome = %q, want miss", tr.Outcome)
	}
	var backendNS int64
	for _, sp := range tr.Spans {
		if sp.Name == "backend_fetch" {
			backendNS = sp.DurNS
		}
	}
	if backendNS == 0 {
		t.Fatalf("no backend_fetch span in %+v", tr.Spans)
	}
	// Only the user-facing Fetch is slow (prefetch uses FetchQuiet), so
	// the backend-fetch span must dominate the request end to end.
	if frac := float64(backendNS) / float64(tr.DurNS); frac < 0.9 {
		t.Errorf("backend_fetch = %.1f%% of wall time, want >= 90%% (span %v of %v)",
			frac*100, time.Duration(backendNS), time.Duration(tr.DurNS))
	}
}

// TestTracesSlowestOrderAndN: /debug/traces returns descending durations
// and honors ?n=.
func TestTracesSlowestOrderAndN(t *testing.T) {
	pyr := testPyramid(t)
	srv, _ := tracedServer(t, backend.NewDBMS(pyr, backend.DefaultLatency(), nil))
	// Pan back and forth (requests must be one move apart).
	for i, x := range []int{0, 1, 0, 1} {
		if rec := get(t, srv, fmt.Sprintf("/tile?level=1&y=0&x=%d", x)); rec.Code != 200 {
			t.Fatalf("tile %d: %d", i, rec.Code)
		}
	}
	rec := get(t, srv, "/debug/traces?n=2")
	var out TracesResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Traces) != 2 || out.Stored != 4 || out.Recorded != 4 {
		t.Fatalf("n=2 returned %d traces (stored %d, recorded %d)", len(out.Traces), out.Stored, out.Recorded)
	}
	if out.Traces[0].DurNS < out.Traces[1].DurNS {
		t.Errorf("traces not slowest-first: %d then %d", out.Traces[0].DurNS, out.Traces[1].DurNS)
	}
	if rec := get(t, srv, "/debug/traces?n=zero"); rec.Code != 400 {
		t.Errorf("bad n = %d, want 400", rec.Code)
	}
	if rec := get(t, srv, "/debug/traces?n=-1"); rec.Code != 400 {
		t.Errorf("negative n = %d, want 400", rec.Code)
	}
}

// TestTracesRecordShedOutcomes: refused requests (bad query, closed
// server) finish as shed and are visible in the buffer.
func TestTracesRecordShedOutcomes(t *testing.T) {
	pyr := testPyramid(t)
	srv, pipe := tracedServer(t, backend.NewDBMS(pyr, backend.DefaultLatency(), nil))
	if rec := get(t, srv, "/tile?level=broken"); rec.Code != 400 {
		t.Fatalf("bad query = %d, want 400", rec.Code)
	}
	traces := pipe.Traces.Snapshot()
	if len(traces) != 1 || traces[0].Outcome != obs.OutcomeShed {
		t.Fatalf("shed request not recorded: %+v", traces)
	}
	if got := pipe.RequestShed.Snapshot().Count; got != 1 {
		t.Errorf("shed histogram count = %d, want 1", got)
	}
}

// TestTracesAbsentWithoutObs: no pipeline, no endpoint.
func TestTracesAbsentWithoutObs(t *testing.T) {
	srv, _ := testServer(t, Config{})
	if rec := get(t, srv, "/debug/traces"); rec.Code != 404 {
		t.Errorf("/debug/traces without Config.Obs = %d, want 404", rec.Code)
	}
}

// TestObservabilitySurvivesClose pins the Close vs in-flight scrape
// contract: /debug/traces and /metrics keep answering 200 while Close
// runs and afterwards, and the final trace set is intact. The concurrent
// section runs under -race in CI.
func TestObservabilitySurvivesClose(t *testing.T) {
	pyr := testPyramid(t)
	srv, _ := tracedServer(t, backend.NewDBMS(pyr, backend.DefaultLatency(), nil))
	for i, x := range []int{0, 1, 0} { // pan moves: requests one step apart
		if rec := get(t, srv, fmt.Sprintf("/tile?level=1&y=0&x=%d", x)); rec.Code != 200 {
			t.Fatalf("tile %d: %d", i, rec.Code)
		}
	}

	// Scrapes race Close from several goroutines; none may observe an
	// error status.
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(path string) {
			defer wg.Done()
			<-start
			for i := 0; i < 25; i++ {
				rec := get(t, srv, path)
				if rec.Code != 200 {
					t.Errorf("%s during Close = %d, want 200", path, rec.Code)
					return
				}
			}
		}([]string{"/debug/traces", "/metrics"}[g%2])
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		srv.Close()
	}()
	close(start)
	wg.Wait()

	// After Close: both endpoints still answer, traces intact, tile shed.
	rec := get(t, srv, "/debug/traces")
	if rec.Code != 200 {
		t.Fatalf("/debug/traces after Close = %d, want 200", rec.Code)
	}
	var out TracesResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Stored < 3 {
		t.Errorf("stored traces after Close = %d, want >= 3", out.Stored)
	}
	if rec := get(t, srv, "/metrics"); rec.Code != 200 {
		t.Fatalf("/metrics after Close = %d, want 200", rec.Code)
	}
	rec = get(t, srv, "/tile?level=0&y=0&x=0")
	if rec.Code != 503 {
		t.Fatalf("tile after Close = %d, want 503", rec.Code)
	}
	if rec.Header().Get("X-Trace-ID") == "" {
		t.Error("post-Close tile refusal lost its trace id")
	}
	// The refusal itself is traced as shed.
	rec = get(t, srv, "/debug/traces?n=50")
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	shed := 0
	for _, tr := range out.Traces {
		if tr.Outcome == obs.OutcomeShed {
			shed++
		}
	}
	if shed < 1 {
		t.Error("post-Close refusal missing from the trace buffer")
	}
}

// TestStatsUptimeAndBuild: the /stats fleet-dashboard fields.
func TestStatsUptimeAndBuild(t *testing.T) {
	srv, _ := testServer(t, Config{})
	rec := get(t, srv, "/stats")
	if rec.Code != 200 {
		t.Fatalf("/stats: %d", rec.Code)
	}
	var out StatsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Uptime < 0 {
		t.Errorf("uptime = %v, want >= 0", out.Uptime)
	}
	if !strings.HasPrefix(out.GoVersion, "go") {
		t.Errorf("go_version = %q", out.GoVersion)
	}
	if out.Build != nil && out.Build["path"] == "" {
		t.Errorf("build info present but empty path: %v", out.Build)
	}
}

// TestMalformedTileDoesNotTouchSessions: /tile validates the coordinate
// before it resolves the session, so at the session cap a malformed request
// for a new id is answered 400 without a factory run and without evicting
// the live analyst — and its trace is recorded as shed.
func TestMalformedTileDoesNotTouchSessions(t *testing.T) {
	pyr := testPyramid(t)
	db := backend.NewDBMS(pyr, backend.DefaultLatency(), nil)
	pipe := obs.NewPipeline(obs.Config{})
	var built atomic.Int64
	factory := func(q core.Submitter) (*core.Engine, error) {
		built.Add(1)
		m := recommend.NewMomentum()
		return core.NewEngine(db, nil, core.SinglePolicy{Model: m.Name()},
			[]recommend.Model{m}, core.Config{K: 2, Obs: pipe})
	}
	srv := New(Meta{}, factory, Config{MaxSessions: 1, Obs: pipe})
	t.Cleanup(srv.Close)
	if rec := get(t, srv, "/tile?session=analyst&level=0&y=0&x=0"); rec.Code != 200 {
		t.Fatalf("analyst tile: %d %s", rec.Code, rec.Body)
	}
	for _, q := range []string{"level=0&y=0", "level=0&y=zero&x=0", "", "level=&y=0&x=0"} {
		if rec := get(t, srv, "/tile?session=stranger&"+q); rec.Code != 400 {
			t.Errorf("malformed %q = %d, want 400", q, rec.Code)
		}
	}
	if srv.gather(false).sessions != 1 || srv.gather(false).evicted != 0 || built.Load() != 1 {
		t.Errorf("sessions = %d evicted = %d factory runs = %d after malformed requests, want 1, 0, 1",
			srv.gather(false).sessions, srv.gather(false).evicted, built.Load())
	}
	if !srv.hasSession("analyst") {
		t.Error("the analyst's session was evicted to answer a 400")
	}
	if got := pipe.RequestShed.Snapshot().Count; got != 4 {
		t.Errorf("shed histogram count = %d, want the 4 malformed requests", got)
	}
	for _, tr := range pipe.Traces.Snapshot() {
		if tr.Session == "stranger" && (tr.Outcome != obs.OutcomeShed || len(tr.Spans) != 0) {
			t.Errorf("malformed request's trace = %+v, want shed with no session span", tr)
		}
	}
}

// TestTraceSpansCoverTheRequest: a traced request's spans are session,
// cache_lookup, (backend_fetch on a miss,) prefetch and write, in start
// order, each inside the trace's duration — so encode + header + body write
// is attributed rather than left in the residual.
func TestTraceSpansCoverTheRequest(t *testing.T) {
	pyr := testPyramid(t)
	srv, pipe := tracedServer(t, backend.NewDBMS(pyr, backend.DefaultLatency(), nil))
	if rec := get(t, srv, "/tile?level=0&y=0&x=0"); rec.Code != 200 {
		t.Fatalf("tile: %d %s", rec.Code, rec.Body)
	}
	traces := pipe.Traces.Snapshot()
	if len(traces) != 1 {
		t.Fatalf("traces = %+v, want one", traces)
	}
	tr := traces[0]
	var names []string
	prevStart := int64(-1)
	for _, sp := range tr.Spans {
		names = append(names, sp.Name)
		if sp.StartNS < prevStart {
			t.Errorf("span %s starts at %d, before its predecessor's %d", sp.Name, sp.StartNS, prevStart)
		}
		prevStart = sp.StartNS
		if sp.StartNS < 0 || sp.StartNS+sp.DurNS > tr.DurNS {
			t.Errorf("span %s [%d, +%d] falls outside the trace's %d ns", sp.Name, sp.StartNS, sp.DurNS, tr.DurNS)
		}
	}
	if got, want := strings.Join(names, ","), "session,cache_lookup,backend_fetch,prefetch,write"; got != want {
		t.Errorf("spans = %s, want %s", got, want)
	}
}
