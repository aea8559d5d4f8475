package prefetch

import (
	"math"
	"sync"
	"testing"
	"time"

	"forecache/internal/tile"
	"forecache/internal/trace"
)

func TestFeedbackColdStartIsStaticCurve(t *testing.T) {
	f := NewFeedbackCollector(5)
	for pos := 0; pos < 6; pos++ {
		want := math.Pow(positionBase, float64(pos))
		if got := f.Factor(pos); math.Abs(got-want) > 1e-12 {
			t.Errorf("cold Factor(%d) = %v, want static %v", pos, got, want)
		}
	}
}

func TestFeedbackLearnsObservedCurve(t *testing.T) {
	f := NewFeedbackCollector(3)
	// Position 0 consumed 100%, position 1 consumed ~50%, position 2 never.
	for i := 0; i < 200; i++ {
		f.Observe(trace.Foraging, "ab", 0, true)
		f.Observe(trace.Foraging, "ab", 1, i%2 == 0)
		f.Observe(trace.Foraging, "ab", 2, false)
	}
	if got := f.Factor(0); got != 1 {
		t.Errorf("Factor(0) = %v, want 1", got)
	}
	if got := f.Factor(1); math.Abs(got-0.5) > 0.1 {
		t.Errorf("Factor(1) = %v, want ~0.5 (observed half consumption)", got)
	}
	if got := f.Factor(2); got != minFactor {
		t.Errorf("Factor(2) = %v, want the floor %v (never consumed)", got, minFactor)
	}
	if n := f.Observations(); n != 600 {
		t.Errorf("Observations = %d, want 600", n)
	}
	if _, obs := f.AllocationRates(trace.Foraging, []string{"ab"}); obs[0] != 600 {
		t.Errorf("AllocationRates(Foraging, ab) fit from %d outcomes, want 600", obs[0])
	}
}

func TestFeedbackCurveMonotone(t *testing.T) {
	f := NewFeedbackCollector(4)
	// Consumption noise makes position 2 look BETTER than position 1; the
	// exported curve must still be non-increasing so utility order can
	// never invert the recommenders' rank order.
	for i := 0; i < 100; i++ {
		f.Observe(trace.Foraging, "ab", 0, true)
		f.Observe(trace.Foraging, "ab", 1, i%5 == 0) // 20%
		f.Observe(trace.Foraging, "ab", 2, i%2 == 0) // 50%
		f.Observe(trace.Foraging, "ab", 3, false)
	}
	curve := f.Curve()
	for p := 1; p < len(curve); p++ {
		if curve[p] > curve[p-1]+1e-12 {
			t.Fatalf("curve not monotone: %v", curve)
		}
	}
	if math.Abs(curve[1]-0.2) > 0.1 {
		t.Errorf("curve[1] = %v, want ~0.2", curve[1])
	}
	if curve[2] > curve[1] {
		t.Errorf("curve[2] = %v must be clamped to curve[1] = %v", curve[2], curve[1])
	}
}

func TestFeedbackDeepPositionsClampToLastBucket(t *testing.T) {
	f := NewFeedbackCollector(2)
	for i := 0; i < 100; i++ {
		f.Observe(trace.Foraging, "ab", 0, true)
		f.Observe(trace.Foraging, "ab", 7, i%4 == 0) // clamps into bucket 1
	}
	if got, want := f.Factor(9), f.Factor(1); got != want {
		t.Errorf("Factor(9) = %v, want last bucket's %v", got, want)
	}
}

func TestFeedbackConcurrentObserve(t *testing.T) {
	f := NewFeedbackCollector(4)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				f.Observe(trace.Foraging, "m", i%4, (i+g)%3 == 0)
				_ = f.Factor(i % 6)
				if i%100 == 0 {
					_ = f.Curve()
					_, _ = f.AllocationRates(trace.Foraging, []string{"m"})
				}
			}
		}(g)
	}
	wg.Wait()
	if n := f.Observations(); n != 8*500 {
		t.Errorf("Observations = %d, want %d", n, 8*500)
	}
}

// TestSchedulerUsesLearnedCurve: once the collector has learned that
// position 1 is consumed as often as position 0, a same-score two-entry
// batch no longer loses its second entry to a positionally-discounted
// admission fight it would lose under the static curve.
func TestSchedulerUsesLearnedCurve(t *testing.T) {
	newCollector := func(flat bool) *FeedbackCollector {
		f := NewFeedbackCollector(4)
		for i := 0; i < 100; i++ {
			f.Observe(trace.Foraging, "ab", 0, true)
			f.Observe(trace.Foraging, "ab", 1, flat) // flat: consumed as often as pos 0
		}
		return f
	}
	run := func(f *FeedbackCollector) Stats {
		clk := newFakeClock()
		s, _ := parkedScheduler(t, clk, Config{GlobalQueue: 2, QueuePerSession: 8, Utility: f})
		// incumbent occupies both slots...
		s.Submit("old", []Request{{Coord: coordAt(0), Score: 1}, {Coord: coordAt(1), Score: 1}})
		// ...and the newcomer's two equal-score entries challenge them.
		s.Submit("new", []Request{{Coord: coordAt(2), Score: 1}, {Coord: coordAt(3), Score: 1}})
		return s.Stats()
	}
	// Learned-flat curve: every position ties, incumbents keep both slots.
	flat := run(newCollector(true))
	if flat.QueueDepths["new"] != 0 || flat.Shed != 0 {
		t.Errorf("flat curve: depths %v shed %d, want incumbents to hold both slots",
			flat.QueueDepths, flat.Shed)
	}
	// Learned-steep curve (position 1 never consumed): the newcomer's
	// front-runner displaces the incumbent's worthless tail.
	steep := run(newCollector(false))
	if steep.QueueDepths["new"] != 1 || steep.Shed != 1 {
		t.Errorf("steep curve: depths %v shed %d, want the tail displaced",
			steep.QueueDepths, steep.Shed)
	}
	// The stats snapshot exports the curve it decided with.
	if st := run(newCollector(false)); len(st.UtilityCurve) == 0 || st.UtilityObservations == 0 {
		t.Errorf("stats missing utility curve/observations: %+v", st)
	}
}

// TestSubmitShedPositionContract pins the position audit of the Submit
// shed-heap bookkeeping: an entry's admission utility and its competition
// utility in the same-batch shed heap price the same 0-indexed rank
// (sq.queued before the counter increments, sq.queued-1 after), and a
// later same-batch entry can therefore never displace an earlier one.
func TestSubmitShedPositionContract(t *testing.T) {
	cases := []struct {
		name       string
		incumbents []float64 // session "inc", submitted first
		batch      []float64 // session "new", submitted at saturation
		globalQ    int
		wantDepths map[string]int
		wantShed   int
		wantDrop   int
	}{
		{
			// Utilities (base 0.85): inc0 at rank 0 = 1.0, inc1 at rank 1
			// = 0.85*0.85 = 0.7225. new0 priced at its would-be rank 0 =
			// 0.9 > 0.7225, so inc1 is shed and new0 joins the heap at the
			// same rank it was admitted at; new1 priced at rank 1 =
			// 0.8*0.85 = 0.68 < the surviving minimum 0.9 -> dropped.
			name:       "newcomer priced at its would-be rank",
			incumbents: []float64{1.0, 0.85 + 1e-9},
			batch:      []float64{0.9, 0.8},
			globalQ:    2,
			wantDepths: map[string]int{"inc": 1, "new": 1},
			wantShed:   1,
			wantDrop:   1,
		},
		{
			// All three of the batch's entries outrank both incumbents at
			// their respective ranks; the third still drops because its own
			// batch-mates occupy the queue and same-batch entries never
			// shed each other (score-desc order x non-increasing factors).
			name:       "same-batch entries never shed each other",
			incumbents: []float64{0.1, 0.1},
			batch:      []float64{1.0, 1.0, 1.0},
			globalQ:    2,
			wantDepths: map[string]int{"inc": 0, "new": 2},
			wantShed:   2,
			wantDrop:   1,
		},
		{
			// Admission at rank r is priced with factor^r, not factor^(r-1):
			// at GlobalQueue=1 the second equal-score entry prices at
			// 1*0.85 < the first's competition utility 1.0 and drops. (An
			// off-by-one pricing it at rank 0 would tie at 1.0 and also
			// drop on the keep-incumbent rule, but an off-by-one in the
			// heap push pricing the first entry at rank 1 would let the
			// second shed it — pinned here.)
			name:       "equal scores keep the earlier entry",
			incumbents: []float64{},
			batch:      []float64{1.0, 1.0},
			globalQ:    1,
			wantDepths: map[string]int{"new": 1},
			wantShed:   0,
			wantDrop:   1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clk := newFakeClock()
			s, _ := parkedScheduler(t, clk, Config{GlobalQueue: tc.globalQ, QueuePerSession: 8})
			next := 0
			mkBatch := func(scores []float64) []Request {
				reqs := make([]Request, len(scores))
				for i, sc := range scores {
					reqs[i] = Request{Coord: coordAt(next), Score: sc}
					next++
				}
				return reqs
			}
			if len(tc.incumbents) > 0 {
				s.Submit("inc", mkBatch(tc.incumbents))
			}
			s.Submit("new", mkBatch(tc.batch))
			st := s.Stats()
			for session, want := range tc.wantDepths {
				if got := st.QueueDepths[session]; got != want {
					t.Errorf("depth[%s] = %d, want %d (%+v)", session, got, want, st)
				}
			}
			if st.Shed != tc.wantShed {
				t.Errorf("Shed = %d, want %d", st.Shed, tc.wantShed)
			}
			if st.Dropped != tc.wantDrop {
				t.Errorf("Dropped = %d, want %d", st.Dropped, tc.wantDrop)
			}
		})
	}
}

// TestDecayedUtilityFactorMatchesStatic: a scheduler with no learned curve
// prices every position on the static positionBase^pos curve.
func TestDecayedUtilityFactorMatchesStatic(t *testing.T) {
	hl := 50 * time.Millisecond
	for _, score := range []float64{2, 0, -1} {
		for _, age := range []time.Duration{0, hl, 3 * hl} {
			for pos := 0; pos < 5; pos++ {
				want := decayedUtilityFactor(score, age, hl, math.Pow(positionBase, float64(pos)))
				got := decayedUtilityFactor(score, age, hl, Config{}.positionFactor(pos))
				if math.Abs(got-want) > 1e-12 && got != want {
					t.Fatalf("unlearned config diverges at score=%v age=%v pos=%d: %v vs %v",
						score, age, pos, got, want)
				}
			}
		}
	}
	_ = tile.Coord{} // keep the tile import with the shared helpers
}

// TestAllocationEvidenceDecay is the half-life table test for the
// per-(phase, model) tallies: a bucket's effective rate halves for every
// half-life of phase outcomes it sits out, a steadily-observed bucket
// barely decays between its own observations, and a silent bucket's first
// new observation re-learns fast instead of crawling at the EWMA alpha.
func TestAllocationEvidenceDecay(t *testing.T) {
	const ph = trace.Foraging
	cases := []struct {
		name     string
		halfLife float64
		quiet    int     // outcomes other models produce after a's warm-up
		wantMax  float64 // a's effective rate must fall to/below this
		wantMin  float64 // ...but not below this
	}{
		{"one half-life", 50, 50, 0.51, 0.49},
		{"two half-lives", 50, 100, 0.26, 0.24},
		{"fresh bucket barely decays", 1000, 10, 1.01, 0.99},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := NewFeedbackCollector(5)
			f.SetAllocationHalfLife(tc.halfLife)
			// Warm a to rate 1.0 (first observation seeds the EWMA).
			for i := 0; i < 40; i++ {
				f.Observe(ph, "a", 0, true)
			}
			before, obs := f.AllocationRate(ph, "a")
			if before < 0.999 || obs != 40 {
				t.Fatalf("warm rate = %v obs %d, want ~1.0 / 40", before, obs)
			}
			// a goes silent while b produces the phase's outcomes.
			for i := 0; i < tc.quiet; i++ {
				f.Observe(ph, "b", 0, true)
			}
			got, obs := f.AllocationRate(ph, "a")
			if got > tc.wantMax || got < tc.wantMin {
				t.Errorf("after %d quiet outcomes rate = %v, want in [%v, %v]",
					tc.quiet, got, tc.wantMin, tc.wantMax)
			}
			// The lifetime observation count (the warmup gate) never decays.
			if obs != 40 {
				t.Errorf("obs decayed to %d, want 40", obs)
			}
			// Another phase's buckets are untouched by this phase's clock.
			f.Observe(trace.Sensemaking, "a", 0, true)
			if r, _ := f.AllocationRate(trace.Sensemaking, "a"); r != 1 {
				t.Errorf("other phase's fresh rate = %v, want 1", r)
			}
		})
	}

	// Fast re-learn: after a long silence, a's decayed evidence means the
	// next observations move the rate far faster than alpha alone would.
	f := NewFeedbackCollector(5)
	f.SetAllocationHalfLife(25)
	for i := 0; i < 40; i++ {
		f.Observe(ph, "a", 0, true) // rate 1.0
	}
	for i := 0; i < 200; i++ {
		f.Observe(ph, "b", 0, true) // 8 half-lives of silence for a
	}
	f.Observe(ph, "a", 0, false) // first post-shift outcome: a miss
	got, _ := f.AllocationRate(ph, "a")
	if got > 0.01 {
		t.Errorf("post-silence rate = %v, want near 0 (decayed evidence + miss)", got)
	}
}

// TestAllocationRatesBatchedMatchesSingle: the batched hot-path probe and
// the single-model probe must agree, including on decay.
func TestAllocationRatesBatchedMatchesSingle(t *testing.T) {
	f := NewFeedbackCollector(5)
	f.SetAllocationHalfLife(30)
	for i := 0; i < 50; i++ {
		f.Observe(trace.Navigation, "a", i%5, i%3 != 0)
		if i%4 == 0 {
			f.Observe(trace.Navigation, "b", i%5, i%2 == 0)
		}
	}
	rates, obs := f.AllocationRates(trace.Navigation, []string{"a", "b", "ghost"})
	for i, m := range []string{"a", "b", "ghost"} {
		r, o := f.AllocationRate(trace.Navigation, m)
		if math.Abs(rates[i]-r) > 1e-12 || obs[i] != o {
			t.Errorf("model %s: batched (%v, %d) != single (%v, %d)", m, rates[i], obs[i], r, o)
		}
	}
}
