package prefetch

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"forecache/internal/backend"
	"forecache/internal/tile"
)

// slowStore models a slow DBMS: every fetch parks briefly, so queues
// actually back up and the global budget, decay and shedding paths run hot.
type slowStore struct {
	delay   time.Duration
	fetches atomic.Int64
}

func (s *slowStore) FetchQuiet(c tile.Coord) (*tile.Tile, error) {
	s.fetches.Add(1)
	time.Sleep(s.delay)
	return &tile.Tile{Coord: c, Size: 1}, nil
}

func (s *slowStore) Fetch(c tile.Coord) (*tile.Tile, error) { return s.FetchQuiet(c) }
func (s *slowStore) Latency() backend.LatencyModel          { return backend.LatencyModel{} }
func (s *slowStore) Pyramid() *tile.Pyramid                 { return nil }

// TestStressFiftySessions hammers the scheduler with 50 concurrent sessions
// submitting, cancelling and probing stats against a slow backend (run with
// -race). It asserts the three hard invariants of the adaptive pipeline:
//
//   - no deadlock: every submitter finishes and Drain returns;
//   - the global budget is never exceeded (PeakPending is the exact
//     lock-held high-water mark of the queue);
//   - no delivery after eviction: cancelled- or shed-while-queued entries
//     never deliver, so total Deliver invocations equal Completed exactly
//     and the per-entry accounting (queued = cancelled+shed+completed+
//     errors) balances.
func TestStressFiftySessions(t *testing.T) {
	const (
		sessions    = 50
		rounds      = 30
		batchSize   = 6
		globalQueue = 64
	)
	store := &slowStore{delay: 200 * time.Microsecond}
	s := NewScheduler(store, Config{
		Workers:         4,
		QueuePerSession: 8,
		GlobalQueue:     globalQueue,
		DecayHalfLife:   5 * time.Millisecond,
	})

	var delivered atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < sessions; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			id := fmt.Sprintf("sess-%02d", g)
			for r := 0; r < rounds; r++ {
				batch := make([]Request, batchSize)
				for i := range batch {
					// Overlapping coordinate space across sessions so the
					// single-flight path coalesces under contention.
					batch[i] = Request{
						Coord:   coordAt(rng.Intn(48)),
						Score:   rng.Float64()*2 - 0.5, // negatives included
						Deliver: func(*tile.Tile) { delivered.Add(1) },
					}
				}
				s.Submit(id, batch)
				switch {
				case r%11 == 10:
					s.CancelSession(id) // eviction mid-stream; state rebuilt on next Submit
				case r%7 == 3:
					st := s.Stats()
					if st.Pending > globalQueue {
						t.Errorf("observed Pending %d over global budget %d", st.Pending, globalQueue)
					}
					if st.Pressure < 0 || st.Pressure > 1 {
						t.Errorf("pressure %v outside [0,1]", st.Pressure)
					}
				}
			}
			if g%2 == 0 {
				s.CancelSession(id)
			}
		}(g)
	}

	done := make(chan struct{})
	go func() {
		wg.Wait()
		s.Drain()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		t.Fatal("deadlock: stress run did not drain")
	}

	st := s.Stats()
	if st.Pending != 0 {
		t.Errorf("Pending = %d after Drain, want 0", st.Pending)
	}
	if st.PeakPending > globalQueue {
		t.Errorf("PeakPending = %d, global budget %d was exceeded", st.PeakPending, globalQueue)
	}
	if got := st.Cancelled + st.Completed + st.Errors + st.Shed; got != st.Queued {
		t.Errorf("Cancelled+Completed+Errors+Shed = %d, want Queued = %d (%+v)", got, st.Queued, st)
	}
	if got := delivered.Load(); got != int64(st.Completed) {
		t.Errorf("Deliver ran %d times, Completed = %d — an evicted or shed entry was delivered", got, st.Completed)
	}
	s.Close()
	if after := delivered.Load(); after != int64(st.Completed) {
		t.Errorf("deliveries continued after Close: %d -> %d", st.Completed, after)
	}
	t.Logf("stress stats: %+v, DBMS fetches: %d", st, store.fetches.Load())
}

// TestNoDeliveryAfterEviction is the deterministic core of the eviction
// guarantee: once CancelSession returns, entries that were still queued can
// never deliver. Both workers are parked on gated fetches, so the victim's
// whole batch is provably queued (not in flight) when the cancel lands.
func TestNoDeliveryAfterEviction(t *testing.T) {
	store := newFakeStore()
	store.gate = make(chan struct{})
	store.started = make(chan tile.Coord, 16)
	s := NewScheduler(store, Config{Workers: 2, GlobalQueue: 32})
	defer s.Close()

	s.Submit("parkA", []Request{{Coord: coordAt(100), Score: 1}})
	s.Submit("parkB", []Request{{Coord: coordAt(101), Score: 1}})
	<-store.started
	<-store.started

	var victimDelivered atomic.Int64
	s.Submit("victim", []Request{
		{Coord: coordAt(0), Score: 4, Deliver: func(*tile.Tile) { victimDelivered.Add(1) }},
		{Coord: coordAt(1), Score: 3, Deliver: func(*tile.Tile) { victimDelivered.Add(1) }},
		{Coord: coordAt(2), Score: 2, Deliver: func(*tile.Tile) { victimDelivered.Add(1) }},
		{Coord: coordAt(3), Score: 1, Deliver: func(*tile.Tile) { victimDelivered.Add(1) }},
	})
	s.CancelSession("victim")
	close(store.gate)
	s.Drain()

	if got := victimDelivered.Load(); got != 0 {
		t.Errorf("evicted session received %d deliveries, want 0", got)
	}
	st := s.Stats()
	if st.Cancelled != 4 {
		t.Errorf("Cancelled = %d, want 4", st.Cancelled)
	}
	if _, tracked := st.QueueDepths["victim"]; tracked {
		t.Error("cancelled session still tracked in QueueDepths")
	}
	for i := 0; i < 4; i++ {
		if store.count(coordAt(i)) != 0 {
			t.Errorf("evicted session's tile %d reached the DBMS", i)
		}
	}
}

// TestStressCancelDuringShedding interleaves CancelSession with saturated
// submissions so shedding, superseding and eviction race on the same
// sessions (run with -race; guards the shed-heap's lazy invalidation).
func TestStressCancelDuringShedding(t *testing.T) {
	store := &slowStore{delay: 50 * time.Microsecond}
	s := NewScheduler(store, Config{
		Workers:         2,
		QueuePerSession: 4,
		GlobalQueue:     8,
		DecayHalfLife:   time.Millisecond,
	})
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			id := fmt.Sprintf("s%d", g%4) // 4 shared ids: heavy self-contention
			rng := rand.New(rand.NewSource(int64(g)))
			for r := 0; r < 50; r++ {
				batch := make([]Request, 4)
				for i := range batch {
					batch[i] = Request{Coord: coordAt(rng.Intn(12)), Score: rng.Float64()}
				}
				s.Submit(id, batch)
				if r%5 == 4 {
					s.CancelSession(id)
				}
			}
		}(g)
	}
	wg.Wait()
	s.Drain()
	st := s.Stats()
	if st.PeakPending > 8 {
		t.Errorf("PeakPending = %d over budget 8", st.PeakPending)
	}
	if got := st.Cancelled + st.Completed + st.Errors + st.Shed; got != st.Queued {
		t.Errorf("accounting: %d != Queued %d (%+v)", got, st.Queued, st)
	}
	s.Close()
}

// BenchmarkSchedulerSaturated measures Submit throughput with the global
// budget hit and decay active — the adaptive path's worst case: every
// admission builds or consults the shed heap. Compare with
// BenchmarkSchedulerSubmitDrain (the PR 1 unsaturated baseline).
func BenchmarkSchedulerSaturated(b *testing.B) {
	store := &slowStore{delay: 20 * time.Microsecond}
	s := NewScheduler(store, Config{
		Workers:         8,
		QueuePerSession: 64,
		GlobalQueue:     128,
		DecayHalfLife:   time.Millisecond,
	})
	defer s.Close()
	const sessions = 8
	batches := make([][]Request, sessions)
	for g := range batches {
		batch := make([]Request, 32)
		for i := range batch {
			batch[i] = Request{Coord: coordAt(g*32 + i), Score: float64(i % 16)}
		}
		batches[g] = batch
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for g := range batches {
			s.Submit(fmt.Sprintf("s%d", g), batches[g])
		}
	}
	b.StopTimer()
	s.Drain()
	st := s.Stats()
	if st.Shed == 0 && st.Dropped == 0 && b.N > 4 {
		b.Fatalf("benchmark never saturated: %+v", st)
	}
}
