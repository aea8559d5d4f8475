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

// TestFairShareEngineUsesSessionSignal: a FairShare engine budgets by
// its own session's pressure, not the global signal — a light session on a
// globally saturated queue keeps its full K, a flooding session collapses
// to 1 even while another session's signal reads 0.
func TestFairShareEngineUsesSessionSignal(t *testing.T) {
	db := testDBMS(t)
	fake := &fakeSubmitter{}
	fake.setPressure(1)                 // global queue saturated...
	fake.setSessionPressure("light", 0) // ...but not this session's doing
	fake.setSessionPressure("flood", 1) // this one owns the queue

	m := recommend.NewMomentum()
	light, err := NewEngine(db, nil, SinglePolicy{Model: m.Name()},
		[]recommend.Model{m}, Config{K: 4, Scheduler: fake, Session: "light", AdaptiveK: true, FairShare: true})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := light.Request(tile.Coord{})
	if err != nil {
		t.Fatal(err)
	}
	if resp.PrefetchBudget != 4 {
		t.Errorf("light session PrefetchBudget = %d under global saturation, want the full 4", resp.PrefetchBudget)
	}

	m2 := recommend.NewMomentum()
	flood, err := NewEngine(db, nil, SinglePolicy{Model: m2.Name()},
		[]recommend.Model{m2}, Config{K: 4, Scheduler: fake, Session: "flood", AdaptiveK: true, FairShare: true})
	if err != nil {
		t.Fatal(err)
	}
	resp, err = flood.Request(tile.Coord{})
	if err != nil {
		t.Fatal(err)
	}
	if resp.PrefetchBudget != 1 {
		t.Errorf("flooding session PrefetchBudget = %d, want 1", resp.PrefetchBudget)
	}

	// Without FairShare the same engine shape reads the global signal.
	m3 := recommend.NewMomentum()
	global, err := NewEngine(db, nil, SinglePolicy{Model: m3.Name()},
		[]recommend.Model{m3}, Config{K: 4, Scheduler: fake, Session: "light", AdaptiveK: true})
	if err != nil {
		t.Fatal(err)
	}
	resp, err = global.Request(tile.Coord{})
	if err != nil {
		t.Fatal(err)
	}
	if resp.PrefetchBudget != 1 {
		t.Errorf("global-signal PrefetchBudget = %d at pressure 1, want 1", resp.PrefetchBudget)
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
