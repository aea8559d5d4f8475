package server

import (
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"forecache/internal/array"
	"forecache/internal/backend"
	"forecache/internal/client"
	"forecache/internal/core"
	"forecache/internal/prefetch"
	"forecache/internal/recommend"
	"forecache/internal/tile"
)

func testPyramid(t testing.TB) *tile.Pyramid {
	t.Helper()
	a := array.NewZero(array.Schema{
		Name:  "RAW",
		Attrs: []string{"v"},
		Dims:  [2]array.Dim{{Name: "lat", Size: 32}, {Name: "lon", Size: 32}},
	})
	data, _ := a.AttrData("v")
	for i := range data {
		data[i] = float64(i % 7)
	}
	pyr, err := tile.Build(a, tile.Params{TileSize: 8, Agg: array.AggAvg})
	if err != nil {
		t.Fatal(err)
	}
	return pyr
}

func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	pyr := testPyramid(t)
	factory := func(session string) (*core.Engine, error) {
		db := backend.NewDBMS(pyr, backend.DefaultLatency(), nil)
		m := recommend.NewMomentum()
		return core.NewEngine(db, nil, core.SinglePolicy{Model: m.Name()},
			[]recommend.Model{m}, core.Config{K: 4})
	}
	srv := New(Meta{Levels: pyr.NumLevels(), TileSize: pyr.TileSize(), Attrs: pyr.Attrs()}, factory, cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	t.Cleanup(srv.Close)
	return srv, ts
}

func TestMetaEndpoint(t *testing.T) {
	_, ts := testServer(t, Config{})
	c := client.New(ts.URL, "")
	meta, err := c.Meta()
	if err != nil {
		t.Fatalf("Meta: %v", err)
	}
	if meta.Levels != 3 || meta.TileSize != 8 || len(meta.Attrs) != 1 {
		t.Errorf("meta = %+v", meta)
	}
}

func TestTileRoundTripAndTelemetry(t *testing.T) {
	_, ts := testServer(t, Config{})
	c := client.New(ts.URL, "u1")
	root := tile.Coord{}
	tl, info, err := c.Tile(root)
	if err != nil {
		t.Fatalf("Tile: %v", err)
	}
	if tl.Coord != root || tl.Size != 8 {
		t.Errorf("tile = %+v", tl)
	}
	if info.Hit {
		t.Error("first request should be a miss")
	}
	if info.Latency <= 0 {
		t.Errorf("latency telemetry = %v", info.Latency)
	}
	// Pan is illegal from the root (side 1), but zooming in works; with a
	// momentum model and K=4 every 1-move candidate from the root is
	// fetched (root has only 4 candidates), so the zoom-in hits.
	child := root.Child(tile.NW)
	_, info2, err := c.Tile(child)
	if err != nil {
		t.Fatal(err)
	}
	if !info2.Hit {
		t.Error("prefetched child should hit")
	}
}

func TestJumpRejectedWith400(t *testing.T) {
	_, ts := testServer(t, Config{})
	c := client.New(ts.URL, "u2")
	if _, _, err := c.Tile(tile.Coord{}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Tile(tile.Coord{Level: 2, Y: 3, X: 3}); err == nil {
		t.Error("jump should be rejected")
	}
}

func TestBadQuery(t *testing.T) {
	_, ts := testServer(t, Config{})
	resp, err := ts.Client().Get(ts.URL + "/tile?level=zero&y=0&x=0")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Errorf("status = %d, want 400", resp.StatusCode)
	}
	resp, err = ts.Client().Get(ts.URL + "/tile?y=0&x=0")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Errorf("missing level: status = %d, want 400", resp.StatusCode)
	}
}

func TestSessionsAreIsolated(t *testing.T) {
	srv, ts := testServer(t, Config{})
	a := client.New(ts.URL, "alice")
	b := client.New(ts.URL, "bob")
	if _, _, err := a.Tile(tile.Coord{}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.Tile(tile.Coord{}); err != nil {
		t.Fatal(err)
	}
	if srv.Sessions() != 2 {
		t.Errorf("sessions = %d, want 2", srv.Sessions())
	}
	// Alice's position must not constrain Bob: Bob can zoom while Alice
	// already zoomed elsewhere.
	if _, _, err := a.Tile(tile.Coord{Level: 1, Y: 0, X: 0}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.Tile(tile.Coord{Level: 1, Y: 1, X: 1}); err != nil {
		t.Fatalf("bob blocked by alice's session: %v", err)
	}
}

func TestResetAndStats(t *testing.T) {
	_, ts := testServer(t, Config{})
	c := client.New(ts.URL, "u3")
	if _, _, err := c.Tile(tile.Coord{}); err != nil {
		t.Fatal(err)
	}
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	cacheStats, ok := stats["cache"].(map[string]any)
	if !ok {
		t.Fatalf("stats = %v, want nested cache block", stats)
	}
	if cacheStats["Misses"].(float64) != 1 {
		t.Errorf("stats = %v", stats)
	}
	if stats["sessions"].(float64) < 1 {
		t.Errorf("sessions = %v", stats["sessions"])
	}
	if err := c.Reset(); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	stats, err = c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats["cache"].(map[string]any)["Misses"].(float64) != 0 {
		t.Errorf("stats after reset = %v", stats)
	}
}

func TestSessionLRUCap(t *testing.T) {
	srv, ts := testServer(t, Config{MaxSessions: 2})
	for _, id := range []string{"a", "b", "c"} {
		c := client.New(ts.URL, id)
		if _, _, err := c.Tile(tile.Coord{}); err != nil {
			t.Fatal(err)
		}
	}
	if srv.Sessions() != 2 {
		t.Errorf("sessions = %d, want 2 (LRU cap)", srv.Sessions())
	}
	if srv.Evicted() != 1 {
		t.Errorf("evicted = %d, want 1", srv.Evicted())
	}
	// "a" was evicted: only "b" and "c" survive. (If "a" returns, the
	// server builds a fresh engine for it — history and cache start over.)
	aAlive := srv.hasSession("a")
	bAlive := srv.hasSession("b")
	cAlive := srv.hasSession("c")
	if aAlive || !bAlive || !cAlive {
		t.Errorf("alive sessions a=%v b=%v c=%v, want only b and c", aAlive, bAlive, cAlive)
	}
}

func TestSessionTTLEviction(t *testing.T) {
	srv, ts := testServer(t, Config{SessionTTL: time.Minute})
	clock := time.Unix(1000, 0)
	srv.now = func() time.Time { return clock }

	a := client.New(ts.URL, "a")
	if _, _, err := a.Tile(tile.Coord{}); err != nil {
		t.Fatal(err)
	}
	// Ten seconds later "b" arrives: "a" is still fresh.
	clock = clock.Add(10 * time.Second)
	b := client.New(ts.URL, "b")
	if _, _, err := b.Tile(tile.Coord{}); err != nil {
		t.Fatal(err)
	}
	if srv.Sessions() != 2 {
		t.Fatalf("sessions = %d, want 2", srv.Sessions())
	}
	// Two minutes later any access sweeps both idle sessions.
	clock = clock.Add(2 * time.Minute)
	c := client.New(ts.URL, "c")
	if _, _, err := c.Tile(tile.Coord{}); err != nil {
		t.Fatal(err)
	}
	if srv.Sessions() != 1 {
		t.Errorf("sessions = %d, want 1 (a and b expired)", srv.Sessions())
	}
	if srv.Evicted() != 2 {
		t.Errorf("evicted = %d, want 2", srv.Evicted())
	}
}

// TestTTLRefreshOnAccess: activity keeps a session alive past the TTL.
func TestTTLRefreshOnAccess(t *testing.T) {
	srv, ts := testServer(t, Config{SessionTTL: time.Minute})
	clock := time.Unix(1000, 0)
	srv.now = func() time.Time { return clock }

	a := client.New(ts.URL, "a")
	cur := tile.Coord{}
	if _, _, err := a.Tile(cur); err != nil {
		t.Fatal(err)
	}
	for i, next := range []tile.Coord{cur.Child(tile.NW), cur.Child(tile.NW).Child(tile.SE), cur.Child(tile.NW)} {
		clock = clock.Add(45 * time.Second) // never idle a full minute
		if _, _, err := a.Tile(next); err != nil {
			t.Fatalf("move %d: %v", i, err)
		}
	}
	if srv.Sessions() != 1 || srv.Evicted() != 0 {
		t.Errorf("sessions = %d evicted = %d, want 1 and 0", srv.Sessions(), srv.Evicted())
	}
}

// asyncTestServer wires a shared DBMS + scheduler, the deployment shape the
// facade's NewServer produces in async mode.
func asyncTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server, *prefetch.Scheduler) {
	t.Helper()
	pyr := testPyramid(t)
	db := backend.NewDBMS(pyr, backend.DefaultLatency(), nil)
	sched := prefetch.NewScheduler(db, prefetch.Config{Workers: 2})
	factory := func(session string) (*core.Engine, error) {
		m := recommend.NewMomentum()
		return core.NewEngine(db, nil, core.SinglePolicy{Model: m.Name()},
			[]recommend.Model{m}, core.Config{K: 4, Scheduler: sched, Session: session})
	}
	cfg.Scheduler = sched
	srv := New(Meta{Levels: pyr.NumLevels(), TileSize: pyr.TileSize(), Attrs: pyr.Attrs()}, factory, cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	t.Cleanup(srv.Close)
	return srv, ts, sched
}

func TestAsyncServerServesAndReportsSchedulerStats(t *testing.T) {
	srv, ts, sched := asyncTestServer(t, Config{})
	c := client.New(ts.URL, "u1")
	if _, _, err := c.Tile(tile.Coord{}); err != nil {
		t.Fatal(err)
	}
	sched.Drain() // let the submitted batch land in the cache
	_, info, err := c.Tile(tile.Coord{}.Child(tile.NW))
	if err != nil {
		t.Fatal(err)
	}
	if !info.Hit {
		t.Error("asynchronously prefetched child should hit")
	}
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	schedStats, ok := stats["scheduler"].(map[string]any)
	if !ok {
		t.Fatalf("stats = %v, want scheduler block", stats)
	}
	if schedStats["Completed"].(float64) < 4 {
		t.Errorf("scheduler stats = %v, want >= 4 completed", schedStats)
	}
	if srv.Scheduler() != sched {
		t.Error("Scheduler() should return the attached scheduler")
	}
}

// TestEvictionCancelsScheduledPrefetch: evicting a session drops its
// scheduler state.
func TestEvictionCancelsScheduledPrefetch(t *testing.T) {
	_, ts, sched := asyncTestServer(t, Config{MaxSessions: 1})
	a := client.New(ts.URL, "a")
	if _, _, err := a.Tile(tile.Coord{}); err != nil {
		t.Fatal(err)
	}
	b := client.New(ts.URL, "b") // evicts "a"
	if _, _, err := b.Tile(tile.Coord{}); err != nil {
		t.Fatal(err)
	}
	sched.Drain()
	if st := sched.Stats(); st.Sessions > 1 {
		t.Errorf("scheduler still tracks %d sessions after eviction, want <= 1", st.Sessions)
	}
}

// TestStatsAndResetDoNotCreateSessions: read-only probes with unknown
// session ids must not spend a factory run or evict live sessions.
func TestStatsAndResetDoNotCreateSessions(t *testing.T) {
	srv, ts := testServer(t, Config{MaxSessions: 1})
	a := client.New(ts.URL, "analyst")
	if _, _, err := a.Tile(tile.Coord{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		probe := client.New(ts.URL, fmt.Sprintf("probe-%d", i))
		stats, err := probe.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if _, hasCache := stats["cache"]; hasCache {
			t.Errorf("unknown session %d got a cache block: %v", i, stats)
		}
		if err := probe.Reset(); err != nil {
			t.Fatalf("reset of unknown session should be a 204 no-op: %v", err)
		}
	}
	if srv.Sessions() != 1 || srv.Evicted() != 0 {
		t.Errorf("sessions = %d evicted = %d after probes, want 1 and 0",
			srv.Sessions(), srv.Evicted())
	}
	// The analyst's session survived and still has its history.
	if _, _, err := a.Tile(tile.Coord{}.Child(tile.NW)); err != nil {
		t.Fatalf("analyst session was disturbed: %v", err)
	}
}
