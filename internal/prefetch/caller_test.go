package prefetch

import (
	"runtime"
	"slices"
	"testing"
	"time"

	"forecache/internal/tile"
)

// A scheduler with no workers is run by its caller: Scheduler.Run.

// TestZeroWorkersStartNoGoroutine: building, submitting to and running a
// scheduler without workers starts no goroutine.
func TestZeroWorkersStartNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	s := NewScheduler(newFakeStore(), Config{})
	s.Submit("a", []Request{{Coord: coordAt(0), Score: 1}, {Coord: coordAt(1), Score: 0.5}})
	if n := s.Run(-1); n != 2 {
		t.Fatalf("Run(-1) = %d, want 2", n)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines %d -> %d, want no new one", before, after)
	}
}

// TestRunFetchesAtMostN: Run(n) issues at most n fetches and returns how
// many it issued; a tile two sessions want costs one fetch.
func TestRunFetchesAtMostN(t *testing.T) {
	store := newFakeStore()
	s := NewScheduler(store, Config{})
	var reqs []Request
	for i := range 5 {
		reqs = append(reqs, Request{Coord: coordAt(i), Score: float64(5 - i)})
	}
	s.Submit("a", reqs)
	s.Submit("b", []Request{{Coord: coordAt(4), Score: 1}})
	if n := s.Run(2); n != 2 || len(store.fetchOrder()) != 2 {
		t.Fatalf("Run(2) = %d after %d fetches, want 2 and 2", n, len(store.fetchOrder()))
	}
	if n := s.Run(0); n != 0 {
		t.Errorf("Run(0) = %d, want 0", n)
	}
	// Round-robin: a's best, then b's one entry, whose fetch also serves
	// a's queued duplicate.
	if st := s.Stats(); st.Pending != 3 || st.Completed != 3 {
		t.Errorf("after Run(2): Pending %d, Completed %d, want 3 and 3", st.Pending, st.Completed)
	}
	if n := s.Run(-1); n != 3 {
		t.Errorf("Run(-1) = %d, want the 3 fetches left", n)
	}
	if n := s.Run(-1); n != 0 {
		t.Errorf("Run(-1) on an idle scheduler = %d, want 0", n)
	}
	st := s.Stats()
	if len(store.fetchOrder()) != 5 || st.Completed != 6 || st.Coalesced != 1 || st.Pending != 0 {
		t.Errorf("%d fetches, Completed %d, Coalesced %d, Pending %d; want 5, 6, 1, 0",
			len(store.fetchOrder()), st.Completed, st.Coalesced, st.Pending)
	}
}

// TestRunDispatchOrder: sessions take turns, round-robin in the order
// they first queued work; within one, the higher score goes first and
// equal scores go in submission order.
func TestRunDispatchOrder(t *testing.T) {
	store := newFakeStore()
	s := NewScheduler(store, Config{})
	a1, a2, a3, b1, b2 := coordAt(1), coordAt(2), coordAt(3), coordAt(4), coordAt(5)
	s.Submit("a", []Request{{Coord: a1, Score: 0.5}, {Coord: a2, Score: 0.9}, {Coord: a3, Score: 0.9}})
	s.Submit("b", []Request{{Coord: b1, Score: 0.2}, {Coord: b2, Score: 0.7}})
	s.Run(-1)
	want := []tile.Coord{a2, b2, a3, b1, a1}
	if got := store.fetchOrder(); !slices.Equal(got, want) {
		t.Errorf("fetch order %v, want %v", got, want)
	}
}

// TestDrainReturnsAfterRun: once Run(-1) returns, nothing is queued or in
// flight, so Drain returns at once.
func TestDrainReturnsAfterRun(t *testing.T) {
	s := NewScheduler(newFakeStore(), Config{})
	delivered := 0
	s.Submit("a", []Request{{Coord: coordAt(0), Score: 1, Deliver: func(*tile.Tile) { delivered++ }}})
	s.Run(-1)
	done := make(chan struct{})
	go func() {
		s.Drain()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Drain blocked after Run(-1)")
	}
	if delivered != 1 {
		t.Errorf("delivered %d times, want 1", delivered)
	}
}
