package core

import (
	"sync"
	"testing"

	"forecache/internal/prefetch"
	"forecache/internal/recommend"
	"forecache/internal/tile"
	"forecache/internal/trace"
)

// fakeSubmitter records submitted batches.
type fakeSubmitter struct {
	mu      sync.Mutex
	batches [][]prefetch.Request
}

func (f *fakeSubmitter) Submit(session string, reqs []prefetch.Request) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.batches = append(f.batches, reqs)
	return len(reqs)
}

func (f *fakeSubmitter) CancelSession(string) {}

func (f *fakeSubmitter) lastBatch() []prefetch.Request {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.batches) == 0 {
		return nil
	}
	return f.batches[len(f.batches)-1]
}

// countingPolicy counts Allocations calls.
type countingPolicy struct {
	SinglePolicy
	calls int
}

func (p *countingPolicy) Allocations(ph trace.Phase, k int) map[string]int {
	p.calls++
	return p.SinglePolicy.Allocations(ph, k)
}

// saturatingEngine is a K=4 momentum engine for session "s1" on a
// one-worker AdaptiveK scheduler whose global budget is exactly one batch,
// over a store whose prefetch fetches wait for the gate: the engine's first
// request fills the queue, so its own next batch meets a saturated queue.
func saturatingEngine(t *testing.T, policy func(name string) AllocationPolicy) (*Engine, *prefetch.Scheduler, *gatedStore) {
	t.Helper()
	store := &gatedStore{DBMS: testDBMS(t), gate: make(chan struct{})}
	sched := prefetch.NewScheduler(store, prefetch.Config{
		Workers: 1, QueuePerSession: 8, GlobalQueue: 4, AdaptiveK: true,
	})
	t.Cleanup(sched.Close)
	m := recommend.NewMomentum()
	eng, err := NewEngine(store, nil, policy(m.Name()),
		[]recommend.Model{m}, Config{K: 4, Scheduler: sched, Session: "s1"})
	if err != nil {
		t.Fatal(err)
	}
	return eng, sched, store
}

// TestAdaptiveKKeepsCacheRegionsFull: the scheduler's trim shrinks only
// what it admits, never the engine's cache allocations — tiles already
// delivered must not be evicted because the queue is saturated.
func TestAdaptiveKKeepsCacheRegionsFull(t *testing.T) {
	eng, sched, store := saturatingEngine(t, func(name string) AllocationPolicy { return SinglePolicy{Model: name} })
	defer close(store.gate)
	if _, err := eng.Request(tile.Coord{}); err != nil {
		t.Fatal(err)
	}
	// Simulate the scheduler having delivered the whole predicted batch.
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
	// A request on the saturated queue has its batch trimmed...
	resp, err := eng.Request(children[0])
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Hit {
		t.Error("delivered child should hit")
	}
	if st := sched.Stats(); st.Dropped == 0 {
		t.Fatalf("saturated queue trimmed nothing: %+v", st)
	}
	// ...but the other delivered tiles must survive in the cache.
	for _, c := range children[1:] {
		if _, ok := eng.cache.Lookup(c); !ok {
			t.Errorf("pressure evicted already-delivered tile %v", c)
		}
	}
}

// TestAdaptiveKOffByDefault: an engine without a scheduler never trims —
// the inline submitter prefetches every tile the engine ranks.
func TestAdaptiveKOffByDefault(t *testing.T) {
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

// TestAdaptiveKUnderRealSaturation drives a real AdaptiveK scheduler into
// saturation with a gated store: the engine keeps handing over its whole
// batch (and asks its policy for one split per request), while the
// scheduler trims it on the saturated queue and admits it whole again once
// the queue drains — the end-to-end backpressure loop.
func TestAdaptiveKUnderRealSaturation(t *testing.T) {
	policy := &countingPolicy{}
	eng, sched, store := saturatingEngine(t, func(name string) AllocationPolicy {
		policy.Model = name
		return policy
	})
	// First request goes out at zero pressure and fills the global queue
	// (4 candidates, budget 4; the lone gated worker may pop one).
	resp, err := eng.Request(tile.Coord{})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Prefetched) != 4 || sched.Stats().Dropped != 0 {
		t.Fatalf("first request handed over %d tiles, %d dropped; want 4 and 0", len(resp.Prefetched), sched.Stats().Dropped)
	}
	// Queue now holds 3 or 4 of the budget's 4, all this session's:
	// pressure >= 0.75, so the scheduler trims the next batch.
	resp, err = eng.Request(tile.Coord{}.Child(tile.NW))
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Prefetched) != 4 {
		t.Errorf("engine handed over %d tiles under saturation, want its whole batch of 4", len(resp.Prefetched))
	}
	dropped := sched.Stats().Dropped
	if dropped < 2 {
		t.Errorf("Dropped = %d under saturation, want >= 2 of 4", dropped)
	}
	close(store.gate)
	sched.Drain()
	// Drained: the whole batch is admitted again.
	if _, err := eng.Request(tile.Coord{}); err != nil {
		t.Fatal(err)
	}
	if got := sched.Stats().Dropped; got != dropped {
		t.Errorf("Dropped grew %d -> %d after drain, want no trim", dropped, got)
	}
	if policy.calls != 3 {
		t.Errorf("3 requests called Allocations %d times, want 3", policy.calls)
	}
}
