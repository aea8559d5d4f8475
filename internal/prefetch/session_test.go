package prefetch

import (
	"testing"

	"forecache/internal/tile"
)

// TestClosedHandleRefusesSubmit: a closed handle queues nothing, its
// Submit returns 0, and the session leaves Stats.Sessions and QueueDepths.
func TestClosedHandleRefusesSubmit(t *testing.T) {
	s, store := parkedScheduler(t, newFakeClock(), Config{})
	h := s.Open("a", nil)
	if n := h.Submit([]Request{{Coord: coordAt(0), Score: 1}, {Coord: coordAt(1), Score: 1}}); n != 2 {
		t.Fatalf("open handle accepted %d, want 2", n)
	}
	if st := s.Stats(); st.QueueDepths["a"] != 2 || st.Sessions != 2 { // a plus the parked warmup
		t.Fatalf("before Close: depths %v, sessions %d", st.QueueDepths, st.Sessions)
	}
	h.Close()
	before := s.Stats()
	if n := h.Submit([]Request{{Coord: coordAt(2), Score: 1}}); n != 0 {
		t.Fatalf("closed handle accepted %d, want 0", n)
	}
	h.Cancel()
	h.Close() // idempotent
	st := s.Stats()
	if _, ok := st.QueueDepths["a"]; ok || st.Sessions != 1 {
		t.Fatalf("after Close: depths %v, sessions %d, want a gone", st.QueueDepths, st.Sessions)
	}
	if st.Queued != before.Queued || st.Pending != 0 || st.Cancelled != 2 {
		t.Fatalf("after Close: %+v, want nothing queued and a's 2 entries cancelled", st)
	}
	close(store.gate)
	s.Drain()
	if store.count(coordAt(0))+store.count(coordAt(2)) != 0 {
		t.Fatal("a closed session's tiles were fetched")
	}
}

// TestHandlesForOneIDAreIndependent: two handles opened for one id (an
// evicted session and the newer session that reuses its id) keep separate
// queues and sinks. Closing the older leaves the newer one's queue and
// pushes alone, and the string adapter resolves to the newer.
func TestHandlesForOneIDAreIndependent(t *testing.T) {
	s, store := parkedScheduler(t, newFakeClock(), Config{})
	sink := &fakeSink{}
	older := s.Open("b", sessionSink{sink, "older"})
	newer := s.Open("b", sessionSink{sink, "newer"})
	older.Submit([]Request{{Coord: coordAt(0), Score: 1}})
	newer.Submit([]Request{{Coord: coordAt(1), Score: 1}, {Coord: coordAt(2), Score: 1}})
	if d := s.Stats().QueueDepths["b"]; d != 3 {
		t.Fatalf("depth of b with both handles live = %d, want 3", d)
	}
	older.Close()
	if d := s.Stats().QueueDepths["b"]; d != 2 {
		t.Fatalf("closing the older handle left b a depth of %d, want the newer's 2", d)
	}
	if n := s.Submit("b", []Request{{Coord: coordAt(3), Score: 1}}); n != 1 {
		t.Fatalf("adapter submit accepted %d, want 1", n)
	}
	close(store.gate)
	s.Drain()
	if store.count(coordAt(0)) != 0 {
		t.Error("the closed handle's entry was fetched")
	}
	pushed := map[string][]tile.Coord{}
	for _, p := range sink.all() {
		pushed[p.session] = append(pushed[p.session], p.coord)
	}
	if len(pushed["older"]) != 0 || len(pushed["newer"]) != 1 || pushed["newer"][0] != coordAt(3) {
		t.Fatalf("pushes = %v, want only the newer handle's latest batch", pushed)
	}
}
