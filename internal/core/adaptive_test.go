package core

import (
	"sync"
	"testing"

	"forecache/internal/prefetch"
	"forecache/internal/recommend"
	"forecache/internal/tile"
	"forecache/internal/trace"
)

// fakeSubmitter records submitted batches and reports settable global and
// per-session pressures.
type fakeSubmitter struct {
	mu         sync.Mutex
	batches    [][]prefetch.Request
	pressure   float64
	perSession map[string]float64
}

func (f *fakeSubmitter) Submit(session string, reqs []prefetch.Request) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.batches = append(f.batches, reqs)
	return len(reqs)
}

func (f *fakeSubmitter) CancelSession(string) {}

func (f *fakeSubmitter) Pressure() float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.pressure
}

func (f *fakeSubmitter) SessionPressure(session string) float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.perSession[session]
}

func (f *fakeSubmitter) setPressure(p float64) {
	f.mu.Lock()
	f.pressure = p
	f.mu.Unlock()
}

func (f *fakeSubmitter) setSessionPressure(session string, p float64) {
	f.mu.Lock()
	if f.perSession == nil {
		f.perSession = map[string]float64{}
	}
	f.perSession[session] = p
	f.mu.Unlock()
}

func (f *fakeSubmitter) lastBatch() []prefetch.Request {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.batches) == 0 {
		return nil
	}
	return f.batches[len(f.batches)-1]
}

func TestAdaptiveBudgetTable(t *testing.T) {
	cases := []struct {
		k        int
		pressure float64
		want     int
	}{
		{5, 0, 5},
		{5, -1, 5},    // clamped below
		{5, 0.25, 4},  // 5 - round(1)
		{5, 0.5, 3},   // 5 - round(2)
		{5, 0.75, 2},  // 5 - round(3)
		{5, 1, 1},     // floor: one tile always submitted
		{5, 2, 1},     // clamped above
		{4, 0.5, 2},   // 4 - round(1.5)
		{1, 1, 1},     // K=1 cannot shrink
		{8, 0.999, 1}, // near saturation
		{8, 0.001, 8}, // round(7*0.001 + 0.5) = 0: negligible pressure keeps K
	}
	for _, tc := range cases {
		if got := adaptiveBudget(tc.k, tc.pressure); got != tc.want {
			t.Errorf("adaptiveBudget(%d, %v) = %d, want %d", tc.k, tc.pressure, got, tc.want)
		}
	}
}

// TestAdaptiveKShrinksAndRestores: the engine reads the backpressure signal
// per request, shrinks its submitted batch under load and restores the full
// budget when the queue drains.
func TestAdaptiveKShrinksAndRestores(t *testing.T) {
	db := testDBMS(t)
	fake := &fakeSubmitter{}
	m := recommend.NewMomentum()
	eng, err := NewEngine(db, nil, SinglePolicy{Model: m.Name()},
		[]recommend.Model{m}, Config{K: 4, Scheduler: fake, Session: "s1", AdaptiveK: true})
	if err != nil {
		t.Fatal(err)
	}

	// No pressure: the root's 4 candidates all fit the full budget.
	resp, err := eng.Request(tile.Coord{})
	if err != nil {
		t.Fatal(err)
	}
	if resp.PrefetchBudget != 4 {
		t.Errorf("PrefetchBudget = %d at zero pressure, want 4", resp.PrefetchBudget)
	}
	if got := len(fake.lastBatch()); got != 4 {
		t.Errorf("submitted %d candidates at zero pressure, want 4", got)
	}

	// Saturated: the budget collapses to a single top candidate.
	fake.setPressure(1)
	resp, err = eng.Request(tile.Coord{}.Child(tile.NW))
	if err != nil {
		t.Fatal(err)
	}
	if resp.PrefetchBudget != 1 {
		t.Errorf("PrefetchBudget = %d at full pressure, want 1", resp.PrefetchBudget)
	}
	if got := len(fake.lastBatch()); got != 1 {
		t.Errorf("submitted %d candidates at full pressure, want 1", got)
	}

	// Drained: the full budget is restored.
	fake.setPressure(0)
	resp, err = eng.Request(tile.Coord{})
	if err != nil {
		t.Fatal(err)
	}
	if resp.PrefetchBudget != 4 {
		t.Errorf("PrefetchBudget = %d after drain, want 4", resp.PrefetchBudget)
	}
	if got := len(fake.lastBatch()); got != 4 {
		t.Errorf("submitted %d candidates after drain, want 4", got)
	}
}

// TestAdaptiveKKeepsCacheRegionsFull: backpressure shrinks only the
// submitted batch, never the cache allocations — tiles the scheduler
// already delivered must not be evicted just because pressure spiked.
func TestAdaptiveKKeepsCacheRegionsFull(t *testing.T) {
	db := testDBMS(t)
	fake := &fakeSubmitter{}
	m := recommend.NewMomentum()
	eng, err := NewEngine(db, nil, SinglePolicy{Model: m.Name()},
		[]recommend.Model{m}, Config{K: 4, Scheduler: fake, Session: "s1", AdaptiveK: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Request(tile.Coord{}); err != nil {
		t.Fatal(err)
	}
	// Simulate the scheduler delivering the whole predicted batch.
	children := []tile.Coord{
		tile.Coord{}.Child(tile.NW), tile.Coord{}.Child(tile.NE),
		tile.Coord{}.Child(tile.SW), tile.Coord{}.Child(tile.SE),
	}
	for _, c := range children {
		tl, err := db.FetchQuiet(c)
		if err != nil {
			t.Fatal(err)
		}
		eng.deliver(m.Name(), eng.epoch, 0, trace.PhaseUnknown, tl)
	}
	// A request under full pressure shrinks its submit batch to 1...
	fake.setPressure(1)
	resp, err := eng.Request(children[0])
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Hit {
		t.Error("delivered child should hit")
	}
	if resp.PrefetchBudget != 1 {
		t.Fatalf("PrefetchBudget = %d at full pressure, want 1", resp.PrefetchBudget)
	}
	// ...but the other delivered tiles must survive in the cache.
	for _, c := range children[1:] {
		if _, ok := eng.cache.Lookup(c); !ok {
			t.Errorf("pressure evicted already-delivered tile %v", c)
		}
	}
}

// TestAdaptiveKOffByDefault: without AdaptiveK the engine ignores pressure.
func TestAdaptiveKOffByDefault(t *testing.T) {
	db := testDBMS(t)
	fake := &fakeSubmitter{}
	fake.setPressure(1)
	eng := newAsyncEngine(t, db, fake, "s1")
	resp, err := eng.Request(tile.Coord{})
	if err != nil {
		t.Fatal(err)
	}
	if resp.PrefetchBudget != 4 {
		t.Errorf("PrefetchBudget = %d, want the configured 4", resp.PrefetchBudget)
	}
	if got := len(fake.lastBatch()); got != 4 {
		t.Errorf("submitted %d, want 4 (pressure must be ignored)", got)
	}
}

// TestAdaptiveKUnderRealSaturation drives a real scheduler into saturation
// with a gated store and watches the engine's budget shrink, then recover
// once the queue drains — the end-to-end backpressure loop.
func TestAdaptiveKUnderRealSaturation(t *testing.T) {
	db := testDBMS(t)
	store := &gatedStore{DBMS: db, gate: make(chan struct{})}
	sched := prefetch.NewScheduler(store, prefetch.Config{
		Workers: 1, QueuePerSession: 8, GlobalQueue: 4,
	})
	defer sched.Close()

	m := recommend.NewMomentum()
	eng, err := NewEngine(store, nil, SinglePolicy{Model: m.Name()},
		[]recommend.Model{m}, Config{K: 4, Scheduler: sched, Session: "s1", AdaptiveK: true})
	if err != nil {
		t.Fatal(err)
	}

	// First request goes out at zero pressure and fills the global queue
	// (4 candidates, budget 4; the lone gated worker may pop one).
	resp, err := eng.Request(tile.Coord{})
	if err != nil {
		t.Fatal(err)
	}
	if resp.PrefetchBudget != 4 {
		t.Fatalf("first PrefetchBudget = %d, want 4", resp.PrefetchBudget)
	}
	// Queue now holds 3 or 4 of the budget's 4: pressure >= 0.75, so the
	// next request must shrink its budget.
	resp, err = eng.Request(tile.Coord{}.Child(tile.NW))
	if err != nil {
		t.Fatal(err)
	}
	if resp.PrefetchBudget >= 4 {
		t.Errorf("PrefetchBudget = %d under saturation, want < 4", resp.PrefetchBudget)
	}
	close(store.gate)
	sched.Drain()
	// Drained: full budget restored.
	resp, err = eng.Request(tile.Coord{})
	if err != nil {
		t.Fatal(err)
	}
	if resp.PrefetchBudget != 4 {
		t.Errorf("PrefetchBudget = %d after drain, want 4", resp.PrefetchBudget)
	}
}
