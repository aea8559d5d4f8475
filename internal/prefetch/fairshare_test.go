package prefetch

import (
	"fmt"
	"sync"
	"testing"
)

// TestSessionPressureFairShare: deterministic shares on a parked scheduler.
func TestSessionPressureFairShare(t *testing.T) {
	clk := newFakeClock()
	s, _ := parkedScheduler(t, clk, Config{GlobalQueue: 16, QueuePerSession: 16})
	batch := func(n, from int, score float64) []Request {
		reqs := make([]Request, n)
		for i := range reqs {
			reqs[i] = Request{Coord: coordAt(from + i), Score: score}
		}
		return reqs
	}
	// Flooder holds 13/16 of the queue, three light sessions 1 each.
	s.Submit("flood", batch(13, 0, 2))
	s.Submit("l1", batch(1, 100, 1))
	s.Submit("l2", batch(1, 110, 1))
	s.Submit("l3", batch(1, 120, 1))

	st := s.Stats()
	if st.Pressure != 1 {
		t.Fatalf("global pressure = %v, want 1 (16/16 queued)", st.Pressure)
	}
	// share 13/16 vs fair 1/4: over = (13/16-1/4)/(3/4) = 0.75.
	if p := st.SessionPressures["flood"]; p < 0.7 || p > 0.8 {
		t.Errorf("flooder pressure = %v, want ~0.75", p)
	}
	// Light sessions sit far under fair share: zero pressure, whole batches.
	for _, id := range []string{"l1", "l2", "l3"} {
		if p := st.SessionPressures[id]; p != 0 {
			t.Errorf("light session %s pressure = %v, want 0", id, p)
		}
	}
	// An idle session (its one entry is in flight) crowds nobody either.
	if p, ok := st.SessionPressures["warmup"]; !ok || p != 0 {
		t.Errorf("idle session pressure = %v (tracked %v), want 0", p, ok)
	}
}

// TestSessionPressureSoleOccupant: one session owning a saturated queue is
// the flooder by definition and reads the full global pressure.
func TestSessionPressureSoleOccupant(t *testing.T) {
	clk := newFakeClock()
	s, _ := parkedScheduler(t, clk, Config{GlobalQueue: 4, QueuePerSession: 8})
	reqs := make([]Request, 4)
	for i := range reqs {
		reqs[i] = Request{Coord: coordAt(i), Score: 1}
	}
	s.Submit("only", reqs)
	if p := s.Stats().SessionPressures["only"]; p != 1 {
		t.Errorf("sole occupant pressure = %v, want the global 1", p)
	}
}

// TestSessionPressureBalancedLoad: equal sharers all sit at fair share and
// read zero — under symmetric load, fair-share backpressure defers to
// shedding instead of collectively punishing every session.
func TestSessionPressureBalancedLoad(t *testing.T) {
	clk := newFakeClock()
	s, _ := parkedScheduler(t, clk, Config{GlobalQueue: 8, QueuePerSession: 8})
	for i := 0; i < 4; i++ {
		s.Submit(fmt.Sprintf("s%d", i), []Request{
			{Coord: coordAt(10 * i), Score: 1}, {Coord: coordAt(10*i + 1), Score: 1},
		})
	}
	st := s.Stats()
	for i := 0; i < 4; i++ {
		if p := st.SessionPressures[fmt.Sprintf("s%d", i)]; p != 0 {
			t.Errorf("balanced session s%d pressure = %v, want 0", i, p)
		}
	}
}

// TestSessionPressureZeroWithoutGlobalBudget: no budget, no pressure, so
// an AdaptiveK shard admits every batch whole.
func TestSessionPressureZeroWithoutGlobalBudget(t *testing.T) {
	clk := newFakeClock()
	s, _ := parkedScheduler(t, clk, Config{QueuePerSession: 8, AdaptiveK: true})
	reqs := make([]Request, 8)
	for i := range reqs {
		reqs[i] = Request{Coord: coordAt(i), Score: 1}
	}
	for r := 0; r < 2; r++ {
		if got := s.Submit("a", reqs); got != len(reqs) {
			t.Errorf("round %d admitted %d, want %d", r, got, len(reqs))
		}
	}
	if st := s.Stats(); st.SessionPressures["a"] != 0 || st.Dropped != 0 {
		t.Errorf("without a global budget: pressure %v, Dropped %d; want 0 and 0", st.SessionPressures["a"], st.Dropped)
	}
}

func TestAdaptiveBudgetTable(t *testing.T) {
	cases := []struct {
		n        int
		pressure float64
		want     int
	}{
		{5, 0, 5},
		{5, -1, 5},    // clamped below
		{5, 0.25, 4},  // 5 - round(1)
		{5, 0.5, 3},   // 5 - round(2)
		{5, 0.75, 2},  // 5 - round(3)
		{5, 1, 1},     // floor: one entry always admitted
		{5, 2, 1},     // clamped above
		{4, 0.5, 2},   // 4 - round(1.5)
		{1, 1, 1},     // a one-entry batch cannot shrink
		{0, 1, 0},     // nor can an empty one grow
		{8, 0.999, 1}, // near saturation
		{8, 0.001, 8}, // round(7*0.001 + 0.5) = 0: negligible pressure keeps all
	}
	for _, tc := range cases {
		if got := adaptiveBudget(tc.n, tc.pressure); got != tc.want {
			t.Errorf("adaptiveBudget(%d, %v) = %d, want %d", tc.n, tc.pressure, got, tc.want)
		}
	}
}

// TestAdaptiveKShrinksAndRestores: an AdaptiveK shard trims a session that
// owns its saturated queue to its single highest-scored entry, counts the
// rest as Dropped, and admits whole batches again once the queue drains. A
// shard without AdaptiveK admits the same batches whole.
func TestAdaptiveKShrinksAndRestores(t *testing.T) {
	batch := func(from int) []Request {
		reqs := make([]Request, 8)
		for i := range reqs {
			// Built lowest score first: the shard must pick by score, not
			// by slice order.
			reqs[i] = Request{Coord: coordAt(from + i), Score: float64(i)}
		}
		return reqs
	}
	for _, adaptive := range []bool{false, true} {
		t.Run(fmt.Sprintf("adaptive=%v", adaptive), func(t *testing.T) {
			s, store := parkedScheduler(t, newFakeClock(), Config{GlobalQueue: 8, QueuePerSession: 16, AdaptiveK: adaptive})
			// Empty queue: zero pressure, the whole batch fills the budget.
			if got := s.Submit("a", batch(0)); got != 8 {
				t.Fatalf("first batch admitted %d, want 8", got)
			}
			// The session alone owns the saturated queue: pressure 1.
			want := 8
			if adaptive {
				want = 1
			}
			if got := s.Submit("a", batch(100)); got != want {
				t.Fatalf("batch on a saturated queue admitted %d, want %d", got, want)
			}
			if st := s.Stats(); st.Dropped != 8-want || st.QueueDepths["a"] != want {
				t.Errorf("Dropped = %d, depth = %d; want %d and %d", st.Dropped, st.QueueDepths["a"], 8-want, want)
			}
			close(store.gate)
			s.Drain()
			// The admitted entry is the batch's highest-scored one.
			if store.count(coordAt(107)) != 1 {
				t.Error("the top-scored entry was not fetched")
			}
			if adaptive && store.count(coordAt(106)) != 0 {
				t.Error("a trimmed entry reached the DBMS")
			}
			// Drained: whole batches again.
			if got := s.Submit("a", batch(200)); got != 8 {
				t.Errorf("batch after drain admitted %d, want 8", got)
			}
		})
	}
}

// TestFairShareFloodersShrinkFirst is the backpressure ordering contract,
// seen through Submit and Stats().Dropped: a flooding session's admitted
// batch shrinks while light sessions keep whole batches — the flooder pays
// for saturation, its victims do not. First a deterministic sequence, then
// the same sessions racing under -race.
func TestFairShareFloodersShrinkFirst(t *testing.T) {
	const floodN, lightN = 48, 2
	s, _ := parkedScheduler(t, newFakeClock(), Config{QueuePerSession: 64, GlobalQueue: 32, AdaptiveK: true})
	flood := func(r int) []Request {
		reqs := make([]Request, floodN) // wants 1.5x the whole global budget
		for i := range reqs {
			reqs[i] = Request{Coord: coordAt((r*floodN + i) % 500), Score: 1}
		}
		return reqs
	}
	light := func(base int) func(int) []Request {
		return func(r int) []Request {
			return []Request{{Coord: coordAt(base + r%50), Score: 1}, {Coord: coordAt(base + 50 + r%50), Score: 1}}
		}
	}
	lights := map[string]func(int) []Request{"l1": light(1000), "l2": light(2000), "l3": light(3000)}

	// An empty queue reads no pressure: the flooder fills the global budget
	// and global admission rejects the other 16.
	if got := s.Submit("flood", flood(0)); got != 32 {
		t.Fatalf("first flood admitted %d, want 32", got)
	}
	// Each light session sheds two of the flooder's tail entries.
	for id, rnd := range lights {
		if got := s.Submit(id, rnd(0)); got != lightN {
			t.Fatalf("light %s admitted %d, want %d", id, got, lightN)
		}
	}
	// The flooder holds 26 of 32 against a fair share of 8: pressure
	// (26/32 - 1/4)/(3/4) = 0.75 trims its 48 to 48 - round(0.75*47) = 13.
	dropped := s.Stats().Dropped
	if got := s.Submit("flood", flood(1)); got != 13 {
		t.Fatalf("crowding flood admitted %d, want 13", got)
	}
	if d := s.Stats().Dropped - dropped; d != floodN-13 {
		t.Errorf("trim dropped %d, want %d", d, floodN-13)
	}

	// The race: every light batch stays whole, so every Dropped entry is
	// the flooder's.
	dropped = s.Stats().Dropped
	const rounds = 200
	var mu sync.Mutex
	floodShort := 0
	var wg sync.WaitGroup
	submit := func(id string, rnd func(int) []Request, n int) {
		defer wg.Done()
		for r := 1; r <= rounds; r++ {
			got := s.Submit(id, rnd(r))
			if id == "flood" {
				mu.Lock()
				floodShort += n - got
				mu.Unlock()
			} else if got != n {
				t.Errorf("light %s round %d admitted %d, want its whole batch of %d", id, r, got, n)
				return
			}
		}
	}
	wg.Add(1 + len(lights))
	go submit("flood", flood, floodN)
	for id, rnd := range lights {
		go submit(id, rnd, lightN)
	}
	wg.Wait()
	st := s.Stats()
	if d := st.Dropped - dropped; d != floodShort || d == 0 {
		t.Errorf("Dropped grew by %d, the flooder fell %d short (want equal and > 0)", d, floodShort)
	}
	if st.SessionPressures["flood"] == 0 {
		t.Errorf("settled flooder reads no pressure: %v", st.SessionPressures)
	}
	for id := range lights {
		if p := st.SessionPressures[id]; p != 0 {
			t.Errorf("settled light %s pressure = %v, want 0", id, p)
		}
	}
}
