package core

import (
	"testing"

	"forecache/internal/prefetch"
	"forecache/internal/recommend"
	"forecache/internal/tile"
	"forecache/internal/trace"
)

// countingPolicy counts Allocations calls.
type countingPolicy struct {
	SinglePolicy
	calls int
}

func (p *countingPolicy) Allocations(ph trace.Phase, k int) map[string]int {
	p.calls++
	return p.SinglePolicy.Allocations(ph, k)
}

// saturatedEngine is a K=4 momentum engine for session "s1" on a
// one-worker scheduler whose global budget is exactly one batch, over a
// store whose prefetch fetches wait for the gate. The engine's first
// request queues its batch; a second session, "flood", then fills the
// whole budget with entries that outrank anything the engine submits, so
// every later engine batch meets a saturated queue. (A lone session cannot
// saturate its own next batch: Submit cancels its previous one first.)
func saturatedEngine(t *testing.T, policy AllocationPolicy) (*Engine, *prefetch.Scheduler, *gatedStore) {
	t.Helper()
	// started's buffer exceeds every prefetch fetch these tests trigger
	// (one parked, then at most the 4 queued once the gate opens), so no
	// fetch ever blocks on it.
	store := &gatedStore{DBMS: testDBMS(t), gate: make(chan struct{}), started: make(chan struct{}, 16)}
	sched := prefetch.NewScheduler(store, prefetch.Config{Workers: 1, QueuePerSession: 8, GlobalQueue: 4})
	t.Cleanup(sched.Close)
	t.Cleanup(func() { close(store.gate) })
	eng, err := NewEngine(store, nil, policy, []recommend.Model{recommend.NewMomentum()},
		Config{K: 4, Scheduler: sched.Open("s1", nil)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Request(tile.Coord{}); err != nil {
		t.Fatal(err)
	}
	// Wait for the lone worker to park on the gate with one of the batch's
	// tiles, so the queue holds still from here on.
	<-store.started
	flood := make([]prefetch.Request, 4)
	for i := range flood {
		flood[i] = prefetch.Request{Coord: tile.Coord{Level: 4, Y: 15, X: i}, Score: 100}
	}
	if got := sched.Submit("flood", flood); got != 4 {
		t.Fatalf("flood admitted %d of 4", got)
	}
	if st := sched.Stats(); st.Pressure != 1 {
		t.Fatalf("queue not saturated: %+v", st)
	}
	return eng, sched, store
}

// TestSaturationKeepsCacheRegionsFull: a saturated queue limits only what
// the scheduler admits, never the engine's cache allocations — tiles
// already delivered must not be evicted because the queue is full.
func TestSaturationKeepsCacheRegionsFull(t *testing.T) {
	eng, sched, store := saturatedEngine(t, SinglePolicy{Model: "momentum"})
	// Simulate the scheduler having delivered the first request's batch.
	children := []tile.Coord{
		tile.Coord{}.Child(tile.NW), tile.Coord{}.Child(tile.NE),
		tile.Coord{}.Child(tile.SW), tile.Coord{}.Child(tile.SE),
	}
	for _, c := range children {
		tl, err := store.DBMS.FetchQuiet(c)
		if err != nil {
			t.Fatal(err)
		}
		eng.cache.InsertPrediction("momentum", eng.cache.Generation(), tl, 0, trace.PhaseUnknown)
	}
	// A request on the saturated queue has its batch rejected...
	resp, err := eng.Request(children[0])
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Hit {
		t.Error("delivered child should hit")
	}
	if st := sched.Stats(); st.Dropped == 0 {
		t.Fatalf("saturated queue rejected nothing: %+v", st)
	}
	// ...but the other delivered tiles must survive in the cache.
	for _, c := range children[1:] {
		if _, ok := eng.cache.Lookup(c); !ok {
			t.Errorf("saturation evicted already-delivered tile %v", c)
		}
	}
}

// TestInlineSubmitterPrefetchesEveryRankedTile: an engine without a
// scheduler prefetches every tile it ranks, before Request returns.
func TestInlineSubmitterPrefetchesEveryRankedTile(t *testing.T) {
	db := testDBMS(t)
	m := recommend.NewMomentum()
	eng, err := NewEngine(db, nil, SinglePolicy{Model: m.Name()}, []recommend.Model{m}, Config{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	prefetched := 0
	for _, c := range []tile.Coord{{}, tile.Coord{}.Child(tile.NW), tile.Coord{}.Child(tile.NW).Child(tile.SE)} {
		resp, err := eng.Request(c)
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Prefetched) != 4 {
			t.Fatalf("request %v ranked %d tiles, want K = 4", c, len(resp.Prefetched))
		}
		prefetched += len(resp.Prefetched)
		if got := eng.CacheStats().Prefetched; got != prefetched {
			t.Errorf("after %v the cache took %d prefetched tiles, want all %d ranked", c, got, prefetched)
		}
	}
}

// TestSaturationAllocatesOncePerRequest: on a saturated queue the engine
// still hands over its whole batch and asks its policy for exactly one
// split per request — how much of the batch to admit is the scheduler's
// decision alone.
func TestSaturationAllocatesOncePerRequest(t *testing.T) {
	policy := &countingPolicy{SinglePolicy: SinglePolicy{Model: "momentum"}}
	eng, sched, _ := saturatedEngine(t, policy)
	dropped := sched.Stats().Dropped
	for _, c := range []tile.Coord{tile.Coord{}.Child(tile.NW), {}} {
		resp, err := eng.Request(c)
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Prefetched) != 4 {
			t.Errorf("engine handed over %d tiles under saturation, want its whole batch of 4", len(resp.Prefetched))
		}
	}
	if got := sched.Stats().Dropped; got == dropped {
		t.Errorf("Dropped stayed %d: the saturated queue admitted every entry", got)
	}
	if policy.calls != 3 {
		t.Errorf("3 requests called Allocations %d times, want 3", policy.calls)
	}
}
