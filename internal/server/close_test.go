package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"forecache/internal/backend"
	"forecache/internal/persist"
	"forecache/internal/prefetch"
	"forecache/internal/tile"
)

// TestStatsCloseRace hammers /stats and /tile from many goroutines while
// Close tears the server down mid-flight (run with -race). Every request
// must complete — 200 for /stats, 200 or 503 for /tile — with no panic and
// no torn snapshot, and after Close the server still answers /stats with
// its server-wide fields.
func TestStatsCloseRace(t *testing.T) {
	srv, ts, sched := asyncTestServer(t, Config{})

	// Seed a few live sessions so Close has handles to close and queued
	// prefetches to cancel.
	for _, id := range []string{"a", "b", "c"} {
		resp, err := ts.Client().Get(ts.URL + "/tile?level=0&y=0&x=0&session=" + id)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < 40; i++ {
				if g%2 == 0 {
					resp, err := ts.Client().Get(ts.URL + "/stats?session=a")
					if err != nil {
						t.Errorf("stats: %v", err)
						return
					}
					var out map[string]any
					if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
						t.Errorf("stats decode: %v", err)
					}
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						t.Errorf("stats status = %d", resp.StatusCode)
					}
				} else {
					// Alternate a legal zoom-in/zoom-out walk per goroutine
					// session so 400s can only mean a real protocol bug.
					url := ts.URL + fmt.Sprintf("/tile?level=%d&y=0&x=0&session=walker-%d", i%2, g)
					resp, err := ts.Client().Get(url)
					if err != nil {
						t.Errorf("tile: %v", err)
						return
					}
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
						t.Errorf("tile status = %d, want 200 or 503", resp.StatusCode)
					}
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		srv.Close()
	}()
	close(start)
	wg.Wait()

	// Post-Close: /tile refuses with 503, /stats still answers consistently.
	resp, err := ts.Client().Get(ts.URL + "/tile?level=0&y=0&x=0&session=late")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-close tile status = %d, want 503", resp.StatusCode)
	}
	resp, err = ts.Client().Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var out StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !out.Closed {
		t.Error("post-close stats should report closed")
	}
	if out.Sessions != 0 {
		t.Errorf("post-close sessions = %d, want 0 (tables torn down)", out.Sessions)
	}
	if st := sched.Stats(); st.Pending != 0 {
		t.Errorf("scheduler pending = %d after Close, want 0", st.Pending)
	}
}

// TestCloseDetachesEngines: Close closes every session's handles, so their
// queued prefetches are cancelled and the scheduler tracks none of them.
func TestCloseDetachesEngines(t *testing.T) {
	srv, ts, sched := asyncTestServer(t, Config{})
	resp, err := ts.Client().Get(ts.URL + "/tile?level=0&y=0&x=0&session=a")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	srv.Close()
	if st := sched.Stats(); st.Sessions != 0 {
		t.Errorf("scheduler still tracks %d sessions after Close", st.Sessions)
	}
	if srv.gather(false).sessions != 0 {
		t.Errorf("server still tracks %d sessions after Close", srv.gather(false).sessions)
	}
	srv.Close() // idempotent
}

// TestStatsExposesPressureAndQueueDepths: the scheduler's queue
// saturation and per-session depths reach /stats.
func TestStatsExposesPressureAndQueueDepths(t *testing.T) {
	_, ts, sched := asyncTestServer(t, Config{})
	resp, err := ts.Client().Get(ts.URL + "/tile?level=0&y=0&x=0&session=a")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	sched.Drain()

	resp, err = ts.Client().Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if _, ok := out["pressure"]; !ok {
		t.Error("stats missing pressure field")
	}
	schedBlock, ok := out["scheduler"].(map[string]any)
	if !ok {
		t.Fatalf("stats = %v, want scheduler block", out)
	}
	depths, ok := schedBlock["QueueDepths"].(map[string]any)
	if !ok {
		t.Fatalf("scheduler stats = %v, want QueueDepths", schedBlock)
	}
	if _, ok := depths["a"]; !ok {
		t.Errorf("QueueDepths = %v, want session a tracked", depths)
	}
}

// gatedStore holds every prefetch fetch until gate is closed, and closes
// entered when the first one arrives.
type gatedStore struct {
	backend.Store
	gate    chan struct{}
	entered chan struct{}
	once    sync.Once
}

func (g *gatedStore) FetchQuiet(c tile.Coord) (*tile.Tile, error) {
	g.once.Do(func() { close(g.entered) })
	<-g.gate
	return g.Store.FetchQuiet(c)
}

// TestConcurrentCloseSnapshotsAfterSchedulerStops: two goroutines call
// Close while a prefetch is in flight. Whichever of them ends up in the
// snapshot store's Close, the one final save must come after the scheduler
// has stopped — i.e. after the in-flight fetch was delivered — so the
// snapshot carries the last outcomes. Run with -race -count=20.
func TestConcurrentCloseSnapshotsAfterSchedulerStops(t *testing.T) {
	pyr := testPyramid(t)
	store := &gatedStore{
		Store: backend.NewDBMS(pyr, backend.DefaultLatency(), nil),
		gate:  make(chan struct{}), entered: make(chan struct{}),
	}
	sched := prefetch.NewScheduler(store, prefetch.Config{Workers: 1})
	var delivered atomic.Bool
	exported := make(chan bool, 1) // one final save => one send
	snapshots, err := persist.NewStore(persist.Config{Dir: t.TempDir(), Interval: -1}, persist.Family{
		Name: "probe", Version: 1,
		Export: func() ([]byte, error) { exported <- delivered.Load(); return []byte("{}"), nil },
		Import: func([]byte) error { return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Meta{}, nil, Config{Scheduler: sched, Persist: snapshots})

	sched.Submit("probe", []prefetch.Request{{
		Coord: tile.Coord{}, Score: 1, Model: "m",
		Deliver: func(*tile.Tile) { delivered.Store(true) },
	}})
	<-store.entered

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			srv.Close()
		}()
	}
	// Nothing observable says "both callers are inside Close", so give a
	// premature save a moment to happen before letting the fetch finish; a
	// correct Close saves nothing until the gate opens, however long that is.
	premature := false
	select {
	case <-exported:
		premature = true
	case <-time.After(50 * time.Millisecond):
	}
	close(store.gate)
	wg.Wait()
	if premature || !<-exported {
		t.Error("final snapshot was exported before the in-flight prefetch was delivered")
	}
	if st := snapshots.Status(); st.Saves != 1 {
		t.Errorf("saves = %d, want exactly the one final snapshot", st.Saves)
	}
}
