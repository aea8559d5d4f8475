package core

import (
	"sync"
	"testing"

	"forecache/internal/obs"
	"forecache/internal/recommend"
	"forecache/internal/tile"
	"forecache/internal/trace"
)

// consumptionRecorder is a fake ConsumptionObserver counting calls per
// coordinate.
type consumptionRecorder struct {
	mu    sync.Mutex
	seen  map[tile.Coord]int
	calls int
}

func newConsumptionRecorder() *consumptionRecorder {
	return &consumptionRecorder{seen: make(map[tile.Coord]int)}
}

func (r *consumptionRecorder) ObserveConsumption(c tile.Coord, _ trace.Phase) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seen[c]++
	r.calls++
}

func (r *consumptionRecorder) count(c tile.Coord) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seen[c]
}

func obsEngine(t testing.TB, cfg Config) *Engine {
	t.Helper()
	db := testDBMS(t)
	ab, err := recommend.NewAB(3, zoomTraces(4))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(db, nil, SinglePolicy{Model: ab.Name()},
		[]recommend.Model{ab}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestMissFeedsConsumption: a request-path miss is reported to the
// consumption sink exactly once — the hotspot table learns the tiles the
// prefetcher failed to anticipate, not only the ones it got right.
func TestMissFeedsConsumption(t *testing.T) {
	rec := newConsumptionRecorder()
	eng := obsEngine(t, Config{K: 4, Consumption: rec})
	c := tile.Coord{}
	if _, err := eng.Request(c); err != nil {
		t.Fatal(err)
	}
	if got := rec.count(c); got != 1 {
		t.Fatalf("miss consumption reported %d times, want 1", got)
	}
}

// TestPrefetchHitNotDoubleCounted: a tile consumed out of a prediction
// region is reported once (via the outcome stream) — the request-path
// feed must not add a second observation for a cache hit.
func TestPrefetchHitNotDoubleCounted(t *testing.T) {
	rec := newConsumptionRecorder()
	eng := obsEngine(t, Config{K: 8, Consumption: rec})
	// Walk the AB model's trained zoom path so the next tile is prefetched.
	c := tile.Coord{}
	if _, err := eng.Request(c); err != nil {
		t.Fatal(err)
	}
	next := trace.Apply(c, trace.ZoomInNW)
	resp, err := eng.Request(next)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Hit {
		t.Fatal("trained zoom step should be prefetched (test setup)")
	}
	if got := rec.count(next); got != 1 {
		t.Fatalf("prefetched-hit consumption reported %d times, want exactly 1", got)
	}
}

// TestRequestTracedSpans: the engine annotates a caller-owned trace with
// cache_lookup / backend_fetch / prefetch spans and the hit-miss outcome.
func TestRequestTracedSpans(t *testing.T) {
	p := obs.NewPipeline(obs.Config{})
	eng := obsEngine(t, Config{K: 4, Obs: p})

	rt := p.StartTrace("sess", "q")
	if _, err := eng.RequestTraced(tile.Coord{}, rt); err != nil {
		t.Fatal(err)
	}
	rt.Finish()

	traces := p.Traces.Snapshot()
	if len(traces) != 1 {
		t.Fatalf("got %d traces", len(traces))
	}
	tr := traces[0]
	if tr.Outcome != obs.OutcomeMiss {
		t.Errorf("outcome = %q, want miss (cold cache)", tr.Outcome)
	}
	names := map[string]bool{}
	for _, sp := range tr.Spans {
		names[sp.Name] = true
	}
	for _, want := range []string{"cache_lookup", "backend_fetch", "prefetch"} {
		if !names[want] {
			t.Errorf("missing span %q (spans: %v)", want, tr.Spans)
		}
	}
	// The sync miss also feeds the backend-fetch histogram (K prefetch
	// fetches feed it too).
	if got := p.BackendFetch.Snapshot().Count; got == 0 {
		t.Error("backend-fetch histogram never fed on the sync path")
	}
}

// TestRequestTracedNilTrace: a nil trace must be a usable no-op (the
// untraced path).
func TestRequestTracedNilTrace(t *testing.T) {
	eng := obsEngine(t, Config{K: 4})
	if _, err := eng.RequestTraced(tile.Coord{}, nil); err != nil {
		t.Fatal(err)
	}
}
