package core

import (
	"sync"
	"testing"

	"forecache/internal/prefetch"
	"forecache/internal/recommend"
	"forecache/internal/tile"
	"forecache/internal/trace"
)

// recordingObserver collects Observe calls for assertions.
type recordingObserver struct {
	mu       sync.Mutex
	outcomes []struct {
		ph    trace.Phase
		model string
		pos   int
		hit   bool
	}
}

func (r *recordingObserver) Observe(ph trace.Phase, model string, pos int, hit bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.outcomes = append(r.outcomes, struct {
		ph    trace.Phase
		model string
		pos   int
		hit   bool
	}{ph, model, pos, hit})
}

func (r *recordingObserver) counts() (hits, misses int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, o := range r.outcomes {
		if o.hit {
			hits++
		} else {
			misses++
		}
	}
	return hits, misses
}

// TestFairShareEngineUsesSessionSignal: an AdaptiveK scheduler trims by
// the submitting engine's own session, not the global signal — a light
// session on a nearly saturated queue keeps its whole batch, while the
// session that floods the queue has its batch trimmed.
func TestFairShareEngineUsesSessionSignal(t *testing.T) {
	store := &gatedStore{DBMS: testDBMS(t), gate: make(chan struct{})}
	sched := prefetch.NewScheduler(store, prefetch.Config{
		Workers: 1, QueuePerSession: 64, GlobalQueue: 16, AdaptiveK: true,
	})
	defer sched.Close()
	defer close(store.gate)
	// The flooder fills 12 of the 16 slots (the gated worker may hold one
	// in flight) with far-away, low-scored tiles.
	flood := make([]prefetch.Request, 12)
	for i := range flood {
		flood[i] = prefetch.Request{Coord: tile.Coord{Level: 4, Y: 15, X: i}, Score: 0.01}
	}
	sched.Submit("flood", flood)
	engine := func(session string) *Engine {
		m := recommend.NewMomentum()
		eng, err := NewEngine(store, nil, SinglePolicy{Model: m.Name()},
			[]recommend.Model{m}, Config{K: 4, Scheduler: sched, Session: session})
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}

	// The light session has nothing queued: it is not crowding anyone.
	if _, err := engine("light").Request(tile.Coord{}); err != nil {
		t.Fatal(err)
	}
	if d := sched.Stats().Dropped; d != 0 {
		t.Errorf("light session's batch lost %d entries under global pressure %v, want 0", d, sched.Stats().Pressure)
	}
	// The flooder holds 11-12 of 15-16 queued against a fair share of half.
	if _, err := engine("flood").Request(tile.Coord{}); err != nil {
		t.Fatal(err)
	}
	if d := sched.Stats().Dropped; d == 0 {
		t.Error("flooding session's batch was admitted whole")
	}
}

// TestEngineReportsOutcomes: a synchronous engine with a Feedback sink drains
// its cache's prefetch outcomes to the observer after every request —
// consumed predictions as hits at their batch position, replaced
// unconsumed ones as misses.
func TestEngineReportsOutcomes(t *testing.T) {
	db := testDBMS(t)
	rec := &recordingObserver{}
	m := recommend.NewMomentum()
	eng, err := NewEngine(db, nil, SinglePolicy{Model: m.Name()},
		[]recommend.Model{m}, Config{K: 4, Feedback: rec})
	if err != nil {
		t.Fatal(err)
	}
	// Walk: root -> NW child -> back out -> NE child. Each request consumes
	// or discards the previous request's prefetched batch.
	coords := []tile.Coord{
		{},
		tile.Coord{}.Child(tile.NW),
		{},
		tile.Coord{}.Child(tile.NE),
	}
	hitResponses := 0
	for _, c := range coords {
		resp, err := eng.Request(c)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Hit {
			hitResponses++
		}
	}
	hits, misses := rec.counts()
	if hits == 0 {
		t.Error("no hit outcomes reported despite cache hits on a prefetched walk")
	}
	if misses == 0 {
		t.Error("no miss outcomes reported despite whole batches being replaced")
	}
	if hitResponses == 0 {
		t.Fatal("walk produced no cache hits; the fixture no longer exercises the loop")
	}
	// Every reported hit corresponds to a prefetched-tile consumption: it
	// cannot exceed the responses served from cache, and attribution must
	// name the engine's one model with an in-budget position.
	if hits > hitResponses {
		t.Errorf("%d hit outcomes exceed %d cache-hit responses", hits, hitResponses)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	for _, o := range rec.outcomes {
		if o.model != m.Name() {
			t.Errorf("outcome attributed to %q, want %q", o.model, m.Name())
		}
		if o.pos < 0 || o.pos >= 4 {
			t.Errorf("outcome position %d outside budget [0,4)", o.pos)
		}
	}
}

// TestEngineFeedbackFeedsCollector wires the real pieces end to end in
// async mode: engine -> scheduler (delivers at batch positions) -> cache
// outcomes -> FeedbackCollector observations.
func TestEngineFeedbackFeedsCollector(t *testing.T) {
	db := testDBMS(t)
	fc := prefetch.NewFeedbackCollector(4)
	sched := prefetch.NewScheduler(db, prefetch.Config{Workers: 2, QueuePerSession: 16, GlobalQueue: 16, Utility: fc})
	defer sched.Close()
	m := recommend.NewMomentum()
	eng, err := NewEngine(db, nil, SinglePolicy{Model: m.Name()},
		[]recommend.Model{m}, Config{K: 4, Scheduler: sched, Session: "s1", Feedback: fc})
	if err != nil {
		t.Fatal(err)
	}
	walk := []tile.Coord{
		{},
		tile.Coord{}.Child(tile.NW),
		{},
		tile.Coord{}.Child(tile.SE),
		{},
	}
	for _, c := range walk {
		if _, err := eng.Request(c); err != nil {
			t.Fatal(err)
		}
		sched.Drain() // make deliveries deterministic before the next move
	}
	// One more request drains the outcomes the last deliveries produced.
	if _, err := eng.Request(tile.Coord{}.Child(tile.NW)); err != nil {
		t.Fatal(err)
	}
	if fc.Observations() == 0 {
		t.Error("collector received no observations from the async loop")
	}
	tallied := 0
	for _, ph := range append(trace.AllPhases(), trace.PhaseUnknown) {
		_, obs := fc.AllocationRates(ph, []string{m.Name()})
		tallied += obs[0]
	}
	if tallied != fc.Observations() {
		t.Errorf("per-(phase, model) tallies attribute %d outcomes to %s, curve saw %d", tallied, m.Name(), fc.Observations())
	}
}
