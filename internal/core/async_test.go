package core

import (
	"sync"
	"sync/atomic"
	"testing"

	"forecache/internal/backend"
	"forecache/internal/prefetch"
	"forecache/internal/recommend"
	"forecache/internal/tile"
)

// gatedStore wraps a DBMS so prefetch (FetchQuiet) fetches block on a gate,
// letting tests hold several sessions' batches queued at once. User-facing
// Fetch passes through ungated. Both count the DBMS fetches they issue.
type gatedStore struct {
	*backend.DBMS
	gate    chan struct{}
	started chan struct{} // if set, signalled as each prefetch fetch parks
	fetches atomic.Int64
}

func (g *gatedStore) Fetch(c tile.Coord) (*tile.Tile, error) {
	g.fetches.Add(1)
	return g.DBMS.Fetch(c)
}

func (g *gatedStore) FetchQuiet(c tile.Coord) (*tile.Tile, error) {
	if g.started != nil {
		g.started <- struct{}{}
	}
	<-g.gate
	g.fetches.Add(1)
	return g.DBMS.FetchQuiet(c)
}

// newAsyncEngine builds an engine over a fresh handle for session on sched.
func newAsyncEngine(t *testing.T, store backend.Store, sched *prefetch.Scheduler, session string) *Engine {
	t.Helper()
	m := recommend.NewMomentum()
	eng, err := NewEngine(store, nil, SinglePolicy{Model: m.Name()},
		[]recommend.Model{m}, Config{K: 4, Scheduler: sched.Open(session, nil)})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestTwoEnginesCoalesceSharedPrediction is the subsystem's headline
// guarantee: two engines sharing one scheduler and predicting the same
// tiles cause exactly one DBMS fetch per tile.
func TestTwoEnginesCoalesceSharedPrediction(t *testing.T) {
	db := testDBMS(t)
	store := &gatedStore{DBMS: db, gate: make(chan struct{})}
	sched := prefetch.NewScheduler(store, prefetch.Config{Workers: 2})
	defer sched.Close()

	alice := newAsyncEngine(t, store, sched, "alice")
	bob := newAsyncEngine(t, store, sched, "bob")

	// Both sessions request the root: each engine predicts the same 4
	// children (momentum from the root has exactly 4 candidates, K=4).
	// Prefetch fetches are gated, so bob's whole batch is queued or
	// piggybacked while alice's is still in flight.
	respA, err := alice.Request(tile.Coord{})
	if err != nil {
		t.Fatal(err)
	}
	respB, err := bob.Request(tile.Coord{})
	if err != nil {
		t.Fatal(err)
	}
	if len(respA.Prefetched) != 4 || len(respB.Prefetched) != 4 {
		t.Fatalf("submitted %d and %d candidates, want 4 and 4",
			len(respA.Prefetched), len(respB.Prefetched))
	}
	queriesBefore := store.fetches.Load() // the two user-facing root fetches
	if queriesBefore != 2 {
		t.Fatalf("user-facing queries = %d, want 2", queriesBefore)
	}
	close(store.gate)
	sched.Drain()

	// 4 shared predictions, each fetched from the DBMS exactly once.
	if got := store.fetches.Load() - queriesBefore; got != 4 {
		t.Errorf("prefetch DBMS queries = %d, want 4 (one per shared tile)", got)
	}
	st := sched.Stats()
	if st.Coalesced != 4 {
		t.Errorf("Coalesced = %d, want 4 (bob's whole batch)", st.Coalesced)
	}
	if st.Completed != 8 {
		t.Errorf("Completed = %d, want 8 (both sessions' entries delivered)", st.Completed)
	}

	// Both engines' caches were populated off the response path: the next
	// zoom-in hits for both sessions.
	child := tile.Coord{}.Child(tile.NW)
	for name, eng := range map[string]*Engine{"alice": alice, "bob": bob} {
		resp, err := eng.Request(child)
		if err != nil {
			t.Fatal(err)
		}
		if !resp.Hit {
			t.Errorf("%s: prefetched child should hit", name)
		}
	}
}

// TestAsyncResetCancelsQueuedPrefetch: Reset drops the session's queued
// scheduler entries.
func TestAsyncResetCancelsQueuedPrefetch(t *testing.T) {
	db := testDBMS(t)
	store := &gatedStore{DBMS: db, gate: make(chan struct{})}
	sched := prefetch.NewScheduler(store, prefetch.Config{Workers: 1})
	defer sched.Close()

	eng := newAsyncEngine(t, store, sched, "s1")
	if _, err := eng.Request(tile.Coord{}); err != nil {
		t.Fatal(err)
	}
	eng.Reset()
	close(store.gate)
	sched.Drain()
	st := sched.Stats()
	// With one worker, one entry was in flight when Reset ran; the other
	// three were still queued and must have been cancelled. (The worker may
	// not have popped yet, in which case all four are cancelled.)
	if st.Cancelled < 3 {
		t.Errorf("Cancelled = %d, want >= 3", st.Cancelled)
	}
	if st.Cancelled+st.Completed != st.Queued {
		t.Errorf("accounting: cancelled %d + completed %d != queued %d",
			st.Cancelled, st.Completed, st.Queued)
	}
}

// TestAsyncSupersedingBatches: a session's second request invalidates the
// first request's still-queued predictions.
func TestAsyncSupersedingBatches(t *testing.T) {
	db := testDBMS(t)
	store := &gatedStore{DBMS: db, gate: make(chan struct{})}
	sched := prefetch.NewScheduler(store, prefetch.Config{Workers: 1})
	defer sched.Close()

	eng := newAsyncEngine(t, store, sched, "s1")
	if _, err := eng.Request(tile.Coord{}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Request(tile.Coord{}.Child(tile.NW)); err != nil {
		t.Fatal(err)
	}
	close(store.gate)
	sched.Drain()
	st := sched.Stats()
	if st.Cancelled == 0 {
		t.Error("second batch should cancel the first batch's queued entries")
	}
	if st.Cancelled+st.Completed+st.Coalesced < st.Queued {
		t.Errorf("unaccounted entries: %+v", st)
	}
}

// TestSyncModeUnchanged: without a scheduler the engine prefetches through
// its inline submitter — the eval harness's deterministic path.
func TestSyncModeUnchanged(t *testing.T) {
	db := testDBMS(t)
	m := recommend.NewMomentum()
	eng, err := NewEngine(db, nil, SinglePolicy{Model: m.Name()},
		[]recommend.Model{m}, Config{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := eng.Request(tile.Coord{})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Prefetched) != 4 {
		t.Fatalf("prefetched = %v", resp.Prefetched)
	}
	// Inline mode: tiles are already cached when Request returns.
	resp2, err := eng.Request(tile.Coord{}.Child(tile.NW))
	if err != nil {
		t.Fatal(err)
	}
	if !resp2.Hit {
		t.Error("synchronously prefetched child should hit")
	}
}

// TestConcurrentAsyncEngines runs several async engines against one
// scheduler under -race.
func TestConcurrentAsyncEngines(t *testing.T) {
	db := testDBMS(t)
	sched := prefetch.NewScheduler(db, prefetch.Config{Workers: 4})
	defer sched.Close()

	var wg sync.WaitGroup
	for _, id := range []string{"a", "b", "c", "d"} {
		eng := newAsyncEngine(t, db, sched, id)
		wg.Add(1)
		go func(eng *Engine) {
			defer wg.Done()
			cur := tile.Coord{}
			if _, err := eng.Request(cur); err != nil {
				t.Error(err)
				return
			}
			for cur.Level < 2 {
				cur = cur.Child(tile.SE)
				if _, err := eng.Request(cur); err != nil {
					t.Error(err)
					return
				}
			}
		}(eng)
	}
	wg.Wait()
	sched.Drain()
	st := sched.Stats()
	if st.Pending != 0 || st.Inflight != 0 {
		t.Errorf("scheduler not drained: %+v", st)
	}
}

// TestResetDropsStaleDeliveries: tiles submitted before a Reset must not
// repopulate the freshly cleared cache when their fetches complete.
func TestResetDropsStaleDeliveries(t *testing.T) {
	db := testDBMS(t)
	store := &gatedStore{DBMS: db, gate: make(chan struct{})}
	sched := prefetch.NewScheduler(store, prefetch.Config{Workers: 2})
	defer sched.Close()

	eng := newAsyncEngine(t, store, sched, "s1")
	resp, err := eng.Request(tile.Coord{})
	if err != nil {
		t.Fatal(err)
	}
	eng.Reset() // cancels queued entries; in-flight fetches still complete
	close(store.gate)
	sched.Drain()

	if st := eng.CacheStats(); st.Prefetched != 0 {
		t.Errorf("Prefetched = %d after Reset, want 0 (stale deliveries dropped)", st.Prefetched)
	}
	for _, c := range resp.Prefetched {
		if got, _ := eng.Request(c); got != nil && got.Hit {
			t.Errorf("stale prefetched tile %v hit after Reset", c)
		}
		break // one probe suffices (and keeps the move legal)
	}
}

// TestClosedHandleRefusesLaterBatches: once the engine's scheduler handle
// is closed (its session was evicted), a request still running on the
// engine is served but queues nothing, and deliveries already in flight
// complete normally.
func TestClosedHandleRefusesLaterBatches(t *testing.T) {
	db := testDBMS(t)
	store := &gatedStore{DBMS: db, gate: make(chan struct{})}
	sched := prefetch.NewScheduler(store, prefetch.Config{Workers: 2})
	defer sched.Close()

	h := sched.Open("s1", nil)
	m := recommend.NewMomentum()
	eng, err := NewEngine(store, nil, SinglePolicy{Model: m.Name()}, []recommend.Model{m}, Config{K: 4, Scheduler: h})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Request(tile.Coord{}); err != nil {
		t.Fatal(err)
	}
	h.Close()
	queued := sched.Stats().Queued
	resp, err := eng.Request(tile.Coord{}.Child(tile.NW))
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Prefetched) == 0 {
		t.Fatal("the engine ranked no batch")
	}
	close(store.gate)
	sched.Drain()
	st := sched.Stats()
	if st.Queued != queued || st.Sessions != 0 {
		t.Errorf("a closed handle queued %d more entries and left %d sessions, want 0 and 0", st.Queued-queued, st.Sessions)
	}
	if st.Cancelled+st.Completed != st.Queued {
		t.Errorf("accounting: cancelled %d + completed %d != queued %d", st.Cancelled, st.Completed, st.Queued)
	}
}
