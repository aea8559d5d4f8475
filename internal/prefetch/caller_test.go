package prefetch

import (
	"fmt"
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
	drained(t, s)
	if delivered != 1 {
		t.Errorf("delivered %d times, want 1", delivered)
	}
}

// TestQueuedCoordRemovalPaths: the entries that several sessions queue
// for one coordinate leave it by every path, one at a time, in any
// position, and the fetch serves exactly the entries still queued.
func TestQueuedCoordRemovalPaths(t *testing.T) {
	t.Run("cancel, supersede, shed and close", func(t *testing.T) {
		store := newFakeStore()
		s := NewScheduler(store, Config{GlobalQueue: 6})
		x := coordAt(0)
		var got []string
		// s0 to s5 queue x, oldest first; s0's entry ranks lowest.
		hs := make([]*Session, 6)
		for i := range hs {
			id := fmt.Sprintf("s%d", i)
			hs[i] = s.Open(id, nil)
			score := 1.0
			if i == 0 {
				score = 0.1
			}
			hs[i].Submit([]Request{{Coord: x, Score: score, Deliver: func(*tile.Tile) { got = append(got, id) }}})
		}
		hs[5].Cancel() // the newest
		// A newer batch supersedes a middle one, and fills the queue.
		hs[2].Submit([]Request{{Coord: coordAt(1), Score: 1}, {Coord: coordAt(2), Score: 1}})
		// At saturation a better newcomer sheds the oldest, lowest entry.
		s.Open("s6", nil).Submit([]Request{{Coord: coordAt(3), Score: 2}})
		hs[4].Close() // the newest left, whose newer neighbour went first

		st := s.Stats()
		if st.Cancelled != 3 || st.Shed != 1 || st.Pending != 5 {
			t.Fatalf("before Run: Cancelled %d, Shed %d, Pending %d; want 3, 1, 5", st.Cancelled, st.Shed, st.Pending)
		}
		if n := s.Run(-1); n != 4 {
			t.Errorf("Run(-1) = %d fetches, want 4", n)
		}
		if n := store.count(x); n != 1 {
			t.Errorf("x fetched %d times, want 1", n)
		}
		// The survivors, newest first.
		if want := []string{"s3", "s1"}; !slices.Equal(got, want) {
			t.Errorf("x delivered to %v, want %v", got, want)
		}
		st = s.Stats()
		if st.Coalesced != 1 || st.Cancelled != 3 || st.Shed != 1 || st.Completed != 5 {
			t.Errorf("Coalesced %d, Cancelled %d, Shed %d, Completed %d; want 1, 3, 1, 5",
				st.Coalesced, st.Cancelled, st.Shed, st.Completed)
		}
		if st.Pending != 0 || st.Inflight != 0 {
			t.Errorf("Pending %d, Inflight %d after Run(-1), want 0, 0", st.Pending, st.Inflight)
		}
		for id, d := range st.QueueDepths {
			if d != 0 {
				t.Errorf("QueueDepths[%s] = %d after Run(-1), want 0", id, d)
			}
		}
	})

	t.Run("shed by a newcomer for the same coordinate", func(t *testing.T) {
		store := newFakeStore()
		s := NewScheduler(store, Config{GlobalQueue: 1})
		x := coordAt(0)
		var got []string
		s.Submit("a", []Request{{Coord: x, Score: 0.1, Deliver: func(*tile.Tile) { got = append(got, "a") }}})
		s.Submit("b", []Request{{Coord: x, Score: 1, Deliver: func(*tile.Tile) { got = append(got, "b") }}})
		if n := s.Run(-1); n != 1 || store.count(x) != 1 || !slices.Equal(got, []string{"b"}) {
			t.Errorf("Run(-1) = %d, x fetched %d times, delivered to %v; want 1, 1, [b]", n, store.count(x), got)
		}
		if st := s.Stats(); st.Shed != 1 || st.Coalesced != 0 || st.Completed != 1 || st.Pending != 0 || st.Inflight != 0 {
			t.Errorf("Shed %d, Coalesced %d, Completed %d, Pending %d, Inflight %d; want 1, 0, 1, 0, 0",
				st.Shed, st.Coalesced, st.Completed, st.Pending, st.Inflight)
		}
	})

	t.Run("all cancelled, then resubmitted", func(t *testing.T) {
		store := newFakeStore()
		s := NewScheduler(store, Config{})
		x := coordAt(0)
		a, b := s.Open("a", nil), s.Open("b", nil)
		a.Submit([]Request{{Coord: x, Score: 1}})
		b.Submit([]Request{{Coord: x, Score: 1}})
		a.Cancel()
		b.Cancel()
		drained(t, s) // nothing is queued
		delivered := 0
		a.Submit([]Request{{Coord: x, Score: 1, Deliver: func(*tile.Tile) { delivered++ }}})
		if n := s.Run(-1); n != 1 || store.count(x) != 1 || delivered != 1 {
			t.Errorf("Run(-1) = %d, x fetched %d times and delivered %d; want 1, 1, 1", n, store.count(x), delivered)
		}
		if st := s.Stats(); st.Cancelled != 2 || st.Coalesced != 0 || st.Pending != 0 || st.Inflight != 0 {
			t.Errorf("Cancelled %d, Coalesced %d, Pending %d, Inflight %d; want 2, 0, 0, 0",
				st.Cancelled, st.Coalesced, st.Pending, st.Inflight)
		}
		drained(t, s)
	})
}

// drained fails t unless s.Drain returns.
func drained(t *testing.T, s *Scheduler) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		s.Drain()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Drain blocked")
	}
}
