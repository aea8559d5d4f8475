package prefetch

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"forecache/internal/backend"
	"forecache/internal/obs"
	"forecache/internal/tile"
)

// fakeStore is a controllable backend.Store: it records fetch order, can
// block fetches on a gate, and can announce fetch starts.
type fakeStore struct {
	mu      sync.Mutex
	order   []tile.Coord
	counts  map[tile.Coord]int
	gate    chan struct{}   // non-nil: each FetchQuiet waits for one receive
	started chan tile.Coord // non-nil: fetch starts are announced here
}

func newFakeStore() *fakeStore {
	return &fakeStore{counts: make(map[tile.Coord]int)}
}

func (f *fakeStore) FetchQuiet(c tile.Coord) (*tile.Tile, error) {
	f.mu.Lock()
	f.order = append(f.order, c)
	f.counts[c]++
	f.mu.Unlock()
	if f.started != nil {
		f.started <- c
	}
	if f.gate != nil {
		<-f.gate
	}
	return &tile.Tile{Coord: c, Size: 1}, nil
}

func (f *fakeStore) Fetch(c tile.Coord) (*tile.Tile, error) { return f.FetchQuiet(c) }
func (f *fakeStore) Latency() backend.LatencyModel          { return backend.LatencyModel{} }
func (f *fakeStore) Pyramid() *tile.Pyramid                 { return nil }

func (f *fakeStore) count(c tile.Coord) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.counts[c]
}

func (f *fakeStore) fetchOrder() []tile.Coord {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]tile.Coord(nil), f.order...)
}

func coordAt(i int) tile.Coord { return tile.Coord{Level: 5, Y: i / 32, X: i % 32} }

// TestCoalescingSharedTile: N sessions wanting the same tile trigger one
// DBMS fetch, and every session's Deliver callback still runs.
func TestCoalescingSharedTile(t *testing.T) {
	store := newFakeStore()
	store.gate = make(chan struct{})
	s := NewScheduler(store, Config{Workers: 4})
	defer s.Close()

	shared := tile.Coord{Level: 3, Y: 1, X: 1}
	var deliveredMu sync.Mutex
	delivered := map[string]int{}
	const sessions = 6
	for i := 0; i < sessions; i++ {
		id := fmt.Sprintf("s%d", i)
		s.Submit(id, []Request{{
			Coord: shared,
			Score: 1,
			Deliver: func(tl *tile.Tile) {
				deliveredMu.Lock()
				delivered[id]++
				deliveredMu.Unlock()
			},
		}})
	}
	close(store.gate)
	s.Drain()

	if got := store.count(shared); got != 1 {
		t.Errorf("shared tile fetched %d times, want exactly 1", got)
	}
	deliveredMu.Lock()
	defer deliveredMu.Unlock()
	if len(delivered) != sessions {
		t.Errorf("delivered to %d sessions, want %d (%v)", len(delivered), sessions, delivered)
	}
	st := s.Stats()
	if st.Completed != sessions {
		t.Errorf("Completed = %d, want %d", st.Completed, sessions)
	}
	if st.Coalesced != sessions-1 {
		t.Errorf("Coalesced = %d, want %d", st.Coalesced, sessions-1)
	}
}

// TestCoalescingStress hammers the scheduler from many goroutines over an
// overlapping coordinate set (run with -race) and checks the accounting
// invariant: every accepted entry ends cancelled, completed, or errored.
func TestCoalescingStress(t *testing.T) {
	store := newFakeStore()
	s := NewScheduler(store, Config{Workers: 8, QueuePerSession: 1024})
	defer s.Close()

	const goroutines = 8
	const rounds = 40
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			id := fmt.Sprintf("sess-%d", g)
			for r := 0; r < rounds; r++ {
				batch := make([]Request, 0, 8)
				for i := 0; i < 8; i++ {
					batch = append(batch, Request{Coord: coordAt((r + i) % 16), Score: float64(i)})
				}
				s.Submit(id, batch)
			}
		}(g)
	}
	wg.Wait()
	s.Drain()

	st := s.Stats()
	if st.Pending != 0 {
		t.Errorf("Pending = %d after Drain, want 0", st.Pending)
	}
	if got := st.Cancelled + st.Completed + st.Errors; got != st.Queued {
		t.Errorf("Cancelled+Completed+Errors = %d, want Queued = %d (stats %+v)", got, st.Queued, st)
	}
	// Whether coalescing occurs here depends on timing (fetches are
	// instantaneous); TestCoalescingSharedTile asserts it deterministically.
	t.Logf("stress stats: %+v", st)
}

// TestSupersededBatchCancelled: a session's newer batch invalidates its
// still-queued entries; the entry already in flight completes.
func TestSupersededBatchCancelled(t *testing.T) {
	store := newFakeStore()
	store.gate = make(chan struct{})
	store.started = make(chan tile.Coord, 16)
	s := NewScheduler(store, Config{Workers: 1})
	defer s.Close()

	a, b, c := coordAt(0), coordAt(1), coordAt(2)
	d := coordAt(3)
	s.Submit("s1", []Request{
		{Coord: a, Score: 3}, // highest: the worker takes this one first
		{Coord: b, Score: 2},
		{Coord: c, Score: 1},
	})
	// Wait until a's fetch is actually in flight, so b and c are the only
	// queued entries when the new batch lands.
	if got := <-store.started; got != a {
		t.Fatalf("first fetch = %v, want %v", got, a)
	}
	s.Submit("s1", []Request{{Coord: d, Score: 1}})
	close(store.gate)
	s.Drain()

	if store.count(b) != 0 || store.count(c) != 0 {
		t.Errorf("superseded tiles fetched: b=%d c=%d, want 0", store.count(b), store.count(c))
	}
	if store.count(a) != 1 || store.count(d) != 1 {
		t.Errorf("a=%d d=%d, want both fetched once", store.count(a), store.count(d))
	}
	st := s.Stats()
	if st.Cancelled != 2 {
		t.Errorf("Cancelled = %d, want 2", st.Cancelled)
	}
}

// TestFairnessAcrossSessions: with one worker, two sessions' queues drain
// in strict alternation, regardless of submission order or scores.
func TestFairnessAcrossSessions(t *testing.T) {
	store := newFakeStore()
	store.gate = make(chan struct{})
	store.started = make(chan tile.Coord, 64)
	s := NewScheduler(store, Config{Workers: 1})
	defer s.Close()

	// Park the worker on a dummy fetch while both batches are queued.
	dummy := tile.Coord{Level: 1}
	s.Submit("warmup", []Request{{Coord: dummy, Score: 1}})
	<-store.started

	const perSession = 5
	alice := make(map[tile.Coord]bool)
	bob := make(map[tile.Coord]bool)
	var batchA, batchB []Request
	for i := 0; i < perSession; i++ {
		ca, cb := coordAt(10+i), coordAt(20+i)
		alice[ca], bob[cb] = true, true
		// Alice's scores all dominate Bob's: fairness, not priority, must
		// interleave the two sessions.
		batchA = append(batchA, Request{Coord: ca, Score: float64(100 + i)})
		batchB = append(batchB, Request{Coord: cb, Score: float64(i)})
	}
	s.Submit("alice", batchA)
	s.Submit("bob", batchB)
	close(store.gate)
	s.Drain()

	order := store.fetchOrder()[1:] // drop the warmup fetch
	if len(order) != 2*perSession {
		t.Fatalf("fetched %d tiles, want %d", len(order), 2*perSession)
	}
	for i := 0; i+1 < len(order); i += 2 {
		x, y := alice[order[i]], alice[order[i+1]]
		if x == y {
			t.Fatalf("fetches %d,%d both from the same session (order %v)", i, i+1, order)
		}
	}
}

// TestPriorityWithinSession: one session's entries come back highest score
// first.
func TestPriorityWithinSession(t *testing.T) {
	store := newFakeStore()
	store.gate = make(chan struct{})
	store.started = make(chan tile.Coord, 16)
	s := NewScheduler(store, Config{Workers: 1})
	defer s.Close()

	dummy := tile.Coord{Level: 1}
	s.Submit("warmup", []Request{{Coord: dummy, Score: 1}})
	<-store.started

	s.Submit("s1", []Request{
		{Coord: coordAt(0), Score: 0.1},
		{Coord: coordAt(1), Score: 0.9},
		{Coord: coordAt(2), Score: 0.5},
	})
	close(store.gate)
	s.Drain()

	want := []tile.Coord{coordAt(1), coordAt(2), coordAt(0)}
	order := store.fetchOrder()[1:]
	for i, c := range want {
		if order[i] != c {
			t.Fatalf("fetch order = %v, want %v", order, want)
		}
	}
}

// TestQueueBudget: submissions beyond QueuePerSession are dropped.
func TestQueueBudget(t *testing.T) {
	store := newFakeStore()
	store.gate = make(chan struct{})
	s := NewScheduler(store, Config{Workers: 1, QueuePerSession: 4})
	defer s.Close()

	var batch []Request
	for i := 0; i < 10; i++ {
		batch = append(batch, Request{Coord: coordAt(i), Score: float64(i)})
	}
	accepted := s.Submit("s1", batch)
	if accepted > 5 { // the worker may have dequeued one entry already
		t.Errorf("accepted %d entries with budget 4", accepted)
	}
	st := s.Stats()
	if st.Dropped < 5 {
		t.Errorf("Dropped = %d, want >= 5", st.Dropped)
	}
	close(store.gate)
}

// TestCancelSession drops a session's queued work and forgets its state.
func TestCancelSession(t *testing.T) {
	store := newFakeStore()
	store.gate = make(chan struct{})
	store.started = make(chan tile.Coord, 16)
	s := NewScheduler(store, Config{Workers: 1})
	defer s.Close()

	dummy := tile.Coord{Level: 1}
	s.Submit("warmup", []Request{{Coord: dummy, Score: 1}})
	<-store.started
	s.Submit("gone", []Request{{Coord: coordAt(0), Score: 1}, {Coord: coordAt(1), Score: 2}})
	s.CancelSession("gone")
	close(store.gate)
	s.Drain()

	if store.count(coordAt(0)) != 0 || store.count(coordAt(1)) != 0 {
		t.Error("cancelled session's tiles were fetched")
	}
	st := s.Stats()
	if st.Cancelled != 2 {
		t.Errorf("Cancelled = %d, want 2", st.Cancelled)
	}
	if st.Sessions != 1 { // only warmup remains
		t.Errorf("Sessions = %d, want 1", st.Sessions)
	}
}

// TestDrainWaitsForDelivery: after Drain, every completed entry's Deliver
// has run.
func TestDrainWaitsForDelivery(t *testing.T) {
	store := newFakeStore()
	s := NewScheduler(store, Config{Workers: 4})
	defer s.Close()

	var mu sync.Mutex
	got := 0
	const n = 32
	for i := 0; i < n; i++ {
		s.Submit(fmt.Sprintf("s%d", i%4), []Request{{
			Coord: coordAt(i),
			Deliver: func(tl *tile.Tile) {
				time.Sleep(time.Millisecond)
				mu.Lock()
				got++
				mu.Unlock()
			},
		}})
	}
	s.Drain()
	mu.Lock()
	defer mu.Unlock()
	st := s.Stats()
	if got != st.Completed {
		t.Errorf("delivered %d, completed %d — Drain returned early", got, st.Completed)
	}
}

// TestCloseIsIdempotentAndStopsSubmit.
func TestCloseIsIdempotentAndStopsSubmit(t *testing.T) {
	store := newFakeStore()
	s := NewScheduler(store, Config{Workers: 2})
	s.Submit("s1", []Request{{Coord: coordAt(0)}})
	s.Close()
	s.Close()
	if n := s.Submit("s1", []Request{{Coord: coordAt(1)}}); n != 0 {
		t.Errorf("Submit after Close accepted %d entries", n)
	}
}

func BenchmarkSchedulerSubmitDrain(b *testing.B) {
	store := newFakeStore()
	s := NewScheduler(store, Config{Workers: 8, QueuePerSession: 256})
	defer s.Close()
	batch := make([]Request, 16)
	for i := range batch {
		batch[i] = Request{Coord: coordAt(i), Score: float64(i)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Submit("s1", batch)
		s.Submit("s2", batch)
		s.Drain()
	}
}

// TestSubmitDrainAllocCeiling pins what one engine batch costs the
// allocator end to end: Shard.Submit of a 5-entry batch, five fetches
// through the coalescer, five deliveries, drain. Measured 43 (entries,
// shard flights, heap growth, one coalescer flight per fetch); lower the
// constant when the number drops.
func TestSubmitDrainAllocCeiling(t *testing.T) {
	s := NewScheduler(newFakeStore(), Config{Workers: 4})
	defer s.Close()
	sh := s.Shard("s1")
	batch := make([]Request, 5)
	for i := range batch {
		batch[i] = Request{Coord: coordAt(i), Score: float64(len(batch) - i)}
	}
	const ceiling = 43
	if n := testing.AllocsPerRun(100, func() {
		sh.Submit("s1", batch)
		s.Drain()
	}); n > ceiling {
		t.Errorf("Submit+Drain of 5 entries allocates %v times, ceiling %d", n, ceiling)
	}
}

// TestSchedulerFeedsObsHistograms: with a pipeline configured, every
// issued entry reports its queue wait and every DBMS fetch its duration.
func TestSchedulerFeedsObsHistograms(t *testing.T) {
	store := newFakeStore()
	p := obs.NewPipeline(obs.Config{})
	s := NewScheduler(store, Config{Workers: 2, Obs: p})
	defer s.Close()
	s.Submit("s1", []Request{{Coord: coordAt(0), Score: 2}, {Coord: coordAt(1), Score: 1}})
	s.Drain()
	if got := p.QueueWait.Snapshot().Count; got != 2 {
		t.Errorf("queue-wait observations = %d, want 2", got)
	}
	if got := p.BackendFetch.Snapshot().Count; got != 2 {
		t.Errorf("backend-fetch observations = %d, want 2", got)
	}
}

// BenchmarkSchedulerSubmitDrainInstrumented is BenchmarkSchedulerSubmitDrain
// with a live observability pipeline: the acceptance budget is staying
// within 5% of the uninstrumented baseline.
func BenchmarkSchedulerSubmitDrainInstrumented(b *testing.B) {
	store := newFakeStore()
	s := NewScheduler(store, Config{Workers: 8, QueuePerSession: 256, Obs: obs.NewPipeline(obs.Config{})})
	defer s.Close()
	batch := make([]Request, 16)
	for i := range batch {
		batch[i] = Request{Coord: coordAt(i), Score: float64(i)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Submit("s1", batch)
		s.Submit("s2", batch)
		s.Drain()
	}
}

// TestCloseWakesDrain: a goroutine blocked in Drain must return when Close
// cancels the remaining work.
func TestCloseWakesDrain(t *testing.T) {
	store := newFakeStore()
	store.gate = make(chan struct{})
	store.started = make(chan tile.Coord, 16)
	s := NewScheduler(store, Config{Workers: 1})
	s.Submit("s1", []Request{{Coord: coordAt(0), Score: 2}, {Coord: coordAt(1), Score: 1}})
	<-store.started // one fetch in flight, one entry queued

	done := make(chan struct{})
	go func() {
		s.Drain()
		close(done)
	}()
	go func() {
		close(store.gate) // let the in-flight fetch finish so Close returns
		s.Close()
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Drain did not return after Close")
	}
}

// TestBudgetStillPiggybacksInflight: requests over the queue budget still
// coalesce onto in-flight fetches instead of being dropped.
func TestBudgetStillPiggybacksInflight(t *testing.T) {
	store := newFakeStore()
	store.gate = make(chan struct{})
	store.started = make(chan tile.Coord, 16)
	s := NewScheduler(store, Config{Workers: 1, QueuePerSession: 1})
	defer s.Close()

	x := coordAt(0)
	s.Submit("other", []Request{{Coord: x, Score: 1}})
	if got := <-store.started; got != x {
		t.Fatalf("first fetch = %v, want %v", got, x)
	}
	// Budget 1: coordAt(1) fills the queue, coordAt(2) is over budget, but
	// x piggybacks on the in-flight fetch despite coming after the break.
	delivered := make(chan tile.Coord, 1)
	accepted := s.Submit("s1", []Request{
		{Coord: coordAt(1), Score: 3},
		{Coord: coordAt(2), Score: 2},
		{Coord: x, Score: 1, Deliver: func(tl *tile.Tile) { delivered <- tl.Coord }},
	})
	if accepted != 2 {
		t.Errorf("accepted = %d, want 2 (one queued, one piggybacked)", accepted)
	}
	close(store.gate)
	s.Drain()
	select {
	case got := <-delivered:
		if got != x {
			t.Errorf("delivered %v, want %v", got, x)
		}
	default:
		t.Error("over-budget request sharing an in-flight fetch was never delivered")
	}
	st := s.Stats()
	if st.Dropped != 1 {
		t.Errorf("Dropped = %d, want 1 (only the unqueueable non-inflight entry)", st.Dropped)
	}
	if store.count(x) != 1 {
		t.Errorf("x fetched %d times, want 1", store.count(x))
	}
}

// TestBudgetDropsLowestScored: when a batch exceeds the per-session queue
// budget, it is the batch's lowest-scored entries that are dropped,
// regardless of the order the caller built the slice in.
func TestBudgetDropsLowestScored(t *testing.T) {
	store := newFakeStore()
	store.gate = make(chan struct{})
	store.started = make(chan tile.Coord, 16)
	s := NewScheduler(store, Config{Workers: 1, QueuePerSession: 2})
	defer s.Close()

	dummy := tile.Coord{Level: 1}
	s.Submit("warmup", []Request{{Coord: dummy, Score: 1}})
	<-store.started

	// Ascending-score batch: the worst order for a naive first-N cut.
	s.Submit("s1", []Request{
		{Coord: coordAt(0), Score: 1},
		{Coord: coordAt(1), Score: 2},
		{Coord: coordAt(2), Score: 3},
	})
	close(store.gate)
	s.Drain()

	if store.count(coordAt(0)) != 0 {
		t.Error("lowest-scored entry should have been dropped")
	}
	if store.count(coordAt(1)) != 1 || store.count(coordAt(2)) != 1 {
		t.Errorf("higher-scored entries should be fetched: got %d and %d",
			store.count(coordAt(1)), store.count(coordAt(2)))
	}
	if st := s.Stats(); st.Dropped != 1 {
		t.Errorf("Dropped = %d, want 1", st.Dropped)
	}
}
