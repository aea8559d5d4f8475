package prefetch

import (
	"math"
	"sync"
	"testing"
	"time"

	"forecache/internal/tile"
)

// fakeClock is a hand-advanced clock: decay becomes testable without sleeps.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1000, 0)} }

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestDecayedUtilityTable(t *testing.T) {
	const hl = 100 * time.Millisecond
	cases := []struct {
		name     string
		score    float64
		age      time.Duration
		halfLife time.Duration
		pos      int
		want     float64
	}{
		{"fresh front-runner keeps its score", 2, 0, hl, 0, 2},
		{"one half-life halves", 2, hl, hl, 0, 1},
		{"two half-lives quarter", 2, 2 * hl, hl, 0, 0.5},
		{"zero half-life disables age decay", 2, time.Hour, 0, 0, 2},
		{"position 1 pays one base factor", 1, 0, hl, 1, positionBase},
		{"position 3 compounds", 1, 0, hl, 3, positionBase * positionBase * positionBase},
		{"age and position compose", 2, hl, hl, 1, positionBase},
		{"negative scores decay downward", -1, hl, hl, 0, -2},
		{"negative with position", -1, 0, hl, 1, -1 / positionBase},
		{"zero score is inert", 0, time.Hour, hl, 5, 0},
		{"negative infinity stays lowest", math.Inf(-1), 0, hl, 0, math.Inf(-1)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := decayedUtilityFactor(tc.score, tc.age, tc.halfLife, math.Pow(positionBase, float64(tc.pos)))
			if math.Abs(got-tc.want) > 1e-12 && got != tc.want {
				t.Errorf("decayedUtilityFactor(%v, %v, %v, base^%d) = %v, want %v",
					tc.score, tc.age, tc.halfLife, tc.pos, got, tc.want)
			}
		})
	}
}

// parkedScheduler builds a scheduler whose single worker is parked on a
// gated warmup fetch, so queue contents are fully deterministic until the
// gate opens.
func parkedScheduler(t *testing.T, clk *fakeClock, cfg Config) (*Scheduler, *fakeStore) {
	t.Helper()
	store := newFakeStore()
	store.gate = make(chan struct{})
	store.started = make(chan tile.Coord, 64)
	cfg.Workers = 1
	cfg.clock = clk.now
	s := NewScheduler(store, cfg)
	t.Cleanup(func() {
		select {
		case <-store.gate:
		default:
			close(store.gate)
		}
		s.Close()
	})
	s.Submit("warmup", []Request{{Coord: tile.Coord{Level: 1}, Score: 1}})
	<-store.started
	return s, store
}

// TestUtilityDecayOrdering: table-driven scenarios for the global admission
// control — which session's entries survive when the budget saturates.
func TestUtilityDecayOrdering(t *testing.T) {
	type batch struct {
		session string
		scores  []float64
		advance time.Duration // clock advance before this batch submits
	}
	cases := []struct {
		name       string
		cfg        Config
		batches    []batch
		wantDepths map[string]int
		wantShed   int
		wantDrop   int
	}{
		{
			name: "stale entries decay past fresher equals",
			cfg:  Config{GlobalQueue: 2, DecayHalfLife: 100 * time.Millisecond, QueuePerSession: 8},
			batches: []batch{
				{session: "stale", scores: []float64{1, 1}},
				{session: "fresh", scores: []float64{1, 1}, advance: time.Second},
			},
			wantDepths: map[string]int{"stale": 0, "fresh": 2},
			wantShed:   2,
		},
		{
			name: "without decay a front-runner tie keeps the incumbent",
			cfg:  Config{GlobalQueue: 1, QueuePerSession: 8},
			batches: []batch{
				{session: "stale", scores: []float64{1}},
				{session: "fresh", scores: []float64{1}, advance: time.Second},
			},
			wantDepths: map[string]int{"stale": 1, "fresh": 0},
			wantDrop:   1,
		},
		{
			name: "position decay lets a fresh front-runner displace an incumbent tail",
			cfg:  Config{GlobalQueue: 2, QueuePerSession: 8},
			batches: []batch{
				{session: "stale", scores: []float64{1, 1}},
				{session: "fresh", scores: []float64{1, 1}, advance: time.Second},
			},
			// fresh's position-0 entry (utility 1) evicts stale's position-1
			// entry (utility positionBase); fresh's own position-1 entry then
			// ties stale's surviving front-runner and is dropped.
			wantDepths: map[string]int{"stale": 1, "fresh": 1},
			wantShed:   1,
			wantDrop:   1,
		},
		{
			name: "higher confidence evicts regardless of age",
			cfg:  Config{GlobalQueue: 2, QueuePerSession: 8},
			batches: []batch{
				{session: "low", scores: []float64{1, 1}},
				{session: "high", scores: []float64{2, 2}},
			},
			wantDepths: map[string]int{"low": 0, "high": 2},
			wantShed:   2,
		},
		{
			name: "negative scores age toward minus infinity",
			cfg:  Config{GlobalQueue: 1, DecayHalfLife: 100 * time.Millisecond, QueuePerSession: 8},
			batches: []batch{
				{session: "stale", scores: []float64{-1}},
				{session: "fresh", scores: []float64{-1}, advance: time.Second},
			},
			wantDepths: map[string]int{"stale": 0, "fresh": 1},
			wantShed:   1,
		},
		{
			name: "position decay sheds a long batch's speculative tail",
			cfg:  Config{GlobalQueue: 4, QueuePerSession: 8},
			batches: []batch{
				{session: "greedy", scores: []float64{1, 1, 1, 1}},
				{session: "modest", scores: []float64{1, 1, 1}},
			},
			// modest's first two entries (positions 0, 1) outrank greedy's
			// tail (positions 2, 3); its third (position 2) ties greedy's
			// surviving position-2 utility and is dropped.
			wantDepths: map[string]int{"greedy": 2, "modest": 2},
			wantShed:   2,
			wantDrop:   1,
		},
		{
			name: "fresh high scores shed across several sessions",
			cfg:  Config{GlobalQueue: 3, DecayHalfLife: 100 * time.Millisecond, QueuePerSession: 8},
			batches: []batch{
				{session: "a", scores: []float64{0.3}},
				{session: "b", scores: []float64{0.5}},
				{session: "c", scores: []float64{0.4}},
				{session: "d", scores: []float64{2, 2}, advance: 300 * time.Millisecond},
			},
			// After 3 half-lives a/b/c hold 0.0375..0.0625; d's two entries
			// evict the weakest two (a then c).
			wantDepths: map[string]int{"a": 0, "b": 1, "c": 0, "d": 2},
			wantShed:   2,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clk := newFakeClock()
			s, _ := parkedScheduler(t, clk, tc.cfg)
			next := 0
			for _, b := range tc.batches {
				clk.advance(b.advance)
				reqs := make([]Request, len(b.scores))
				for i, sc := range b.scores {
					reqs[i] = Request{Coord: coordAt(next), Score: sc}
					next++
				}
				s.Submit(b.session, reqs)
			}
			st := s.Stats()
			for session, want := range tc.wantDepths {
				if got := st.QueueDepths[session]; got != want {
					t.Errorf("queue depth[%s] = %d, want %d (stats %+v)", session, got, want, st)
				}
			}
			if st.Shed != tc.wantShed {
				t.Errorf("Shed = %d, want %d", st.Shed, tc.wantShed)
			}
			if st.Dropped != tc.wantDrop {
				t.Errorf("Dropped = %d, want %d", st.Dropped, tc.wantDrop)
			}
			if st.Pending > tc.cfg.GlobalQueue {
				t.Errorf("Pending = %d exceeds global budget %d", st.Pending, tc.cfg.GlobalQueue)
			}
			if st.PeakPending > tc.cfg.GlobalQueue {
				t.Errorf("PeakPending = %d exceeds global budget %d", st.PeakPending, tc.cfg.GlobalQueue)
			}
		})
	}
}

// TestShedAccounting: shed entries are accounted exactly once — after a
// drain every accepted entry is cancelled, shed, completed, or errored.
func TestShedAccounting(t *testing.T) {
	clk := newFakeClock()
	s, store := parkedScheduler(t, clk, Config{GlobalQueue: 2, DecayHalfLife: time.Millisecond, QueuePerSession: 8})
	s.Submit("a", []Request{{Coord: coordAt(0), Score: 1}, {Coord: coordAt(1), Score: 1}})
	clk.advance(time.Second)
	s.Submit("b", []Request{{Coord: coordAt(2), Score: 1}, {Coord: coordAt(3), Score: 1}})
	close(store.gate)
	s.Drain()
	st := s.Stats()
	if got := st.Cancelled + st.Completed + st.Errors + st.Shed; got != st.Queued {
		t.Errorf("Cancelled+Completed+Errors+Shed = %d, want Queued = %d (%+v)", got, st.Queued, st)
	}
	if store.count(coordAt(0)) != 0 || store.count(coordAt(1)) != 0 {
		t.Error("shed entries must never reach the DBMS")
	}
	if store.count(coordAt(2)) != 1 || store.count(coordAt(3)) != 1 {
		t.Error("admitted entries should be fetched")
	}
}

// TestPressureSignal: pressure tracks global queue occupancy and returns to
// zero when the queue drains.
func TestPressureSignal(t *testing.T) {
	clk := newFakeClock()
	s, store := parkedScheduler(t, clk, Config{GlobalQueue: 8, QueuePerSession: 8})
	if p := s.Stats().Pressure; p != 0 {
		t.Errorf("idle pressure = %v, want 0", p)
	}
	batch := func(n, from int) []Request {
		reqs := make([]Request, n)
		for i := range reqs {
			reqs[i] = Request{Coord: coordAt(from + i), Score: 1}
		}
		return reqs
	}
	s.Submit("a", batch(4, 0))
	if p := s.Stats().Pressure; p != 0.5 {
		t.Errorf("pressure at 4/8 = %v, want 0.5", p)
	}
	s.Submit("b", batch(4, 10))
	if p := s.Stats().Pressure; p != 1 {
		t.Errorf("pressure at 8/8 = %v, want 1", p)
	}
	close(store.gate)
	s.Drain()
	if p := s.Stats().Pressure; p != 0 {
		t.Errorf("drained pressure = %v, want 0", p)
	}
}

// TestPressureZeroWithoutGlobalBudget: no budget, no backpressure signal.
func TestPressureZeroWithoutGlobalBudget(t *testing.T) {
	clk := newFakeClock()
	s, _ := parkedScheduler(t, clk, Config{QueuePerSession: 64})
	s.Submit("a", []Request{{Coord: coordAt(0), Score: 1}, {Coord: coordAt(1), Score: 1}})
	if p := s.Stats().Pressure; p != 0 {
		t.Errorf("pressure without global budget = %v, want 0", p)
	}
}

// TestGlobalBudgetStillPiggybacksInflight: at global saturation, duplicate
// requests still coalesce onto in-flight fetches at zero queue cost.
func TestGlobalBudgetStillPiggybacksInflight(t *testing.T) {
	clk := newFakeClock()
	s, store := parkedScheduler(t, clk, Config{GlobalQueue: 1, QueuePerSession: 8})
	// The warmup fetch for L1 is in flight; the global queue is filled by a.
	s.Submit("a", []Request{{Coord: coordAt(0), Score: 5}})
	delivered := make(chan tile.Coord, 1)
	accepted := s.Submit("b", []Request{
		{Coord: tile.Coord{Level: 1}, Score: 0.1, Deliver: func(tl *tile.Tile) { delivered <- tl.Coord }},
	})
	if accepted != 1 {
		t.Errorf("accepted = %d, want 1 (piggybacked on the in-flight fetch)", accepted)
	}
	close(store.gate)
	s.Drain()
	select {
	case got := <-delivered:
		if got != (tile.Coord{Level: 1}) {
			t.Errorf("delivered %v, want the in-flight tile", got)
		}
	default:
		t.Error("piggybacked request at global saturation was never delivered")
	}
	if st := s.Stats(); st.Shed != 0 {
		t.Errorf("Shed = %d, want 0 (coalescing costs no queue slot)", st.Shed)
	}
}

// TestQueueDepthsSnapshot: /stats-style per-session queue depths.
func TestQueueDepthsSnapshot(t *testing.T) {
	clk := newFakeClock()
	s, store := parkedScheduler(t, clk, Config{QueuePerSession: 8})
	s.Submit("a", []Request{{Coord: coordAt(0), Score: 1}, {Coord: coordAt(1), Score: 1}})
	s.Submit("b", []Request{{Coord: coordAt(2), Score: 1}})
	st := s.Stats()
	want := map[string]int{"warmup": 0, "a": 2, "b": 1}
	for id, depth := range want {
		if st.QueueDepths[id] != depth {
			t.Errorf("QueueDepths[%s] = %d, want %d", id, st.QueueDepths[id], depth)
		}
	}
	if len(st.QueueDepths) != len(want) {
		t.Errorf("QueueDepths = %v, want exactly %v", st.QueueDepths, want)
	}
	close(store.gate)
	s.Drain()
	if st := s.Stats(); st.QueueDepths["a"] != 0 || st.QueueDepths["b"] != 0 {
		t.Errorf("drained QueueDepths = %v, want zeros", st.QueueDepths)
	}
}

// TestDecayDoesNotReorderWithinBatch: decay is a cross-session admission
// currency; within one session's batch the dispatch order stays score-desc.
func TestDecayDoesNotReorderWithinBatch(t *testing.T) {
	clk := newFakeClock()
	s, store := parkedScheduler(t, clk, Config{GlobalQueue: 16, DecayHalfLife: time.Millisecond, QueuePerSession: 8})
	s.Submit("s1", []Request{
		{Coord: coordAt(0), Score: 0.1},
		{Coord: coordAt(1), Score: 0.9},
		{Coord: coordAt(2), Score: 0.5},
	})
	clk.advance(time.Hour) // ancient, but order within the session holds
	close(store.gate)
	s.Drain()
	order := store.fetchOrder()[1:]
	want := []tile.Coord{coordAt(1), coordAt(2), coordAt(0)}
	for i, c := range want {
		if order[i] != c {
			t.Fatalf("fetch order = %v, want %v", order, want)
		}
	}
}
