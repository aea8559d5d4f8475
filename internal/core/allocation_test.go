package core

import (
	"math"
	"slices"
	"sync"
	"testing"

	"forecache/internal/prefetch"
	"forecache/internal/recommend"
	"forecache/internal/tile"
	"forecache/internal/trace"
)

// fakeRater is a settable AllocationFeedback.
type fakeRater struct {
	mu    sync.Mutex
	rates map[trace.Phase]map[string]float64
	obs   map[trace.Phase]map[string]int
}

func newFakeRater() *fakeRater {
	return &fakeRater{
		rates: map[trace.Phase]map[string]float64{},
		obs:   map[trace.Phase]map[string]int{},
	}
}

func (f *fakeRater) set(ph trace.Phase, model string, rate float64, obs int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.rates[ph] == nil {
		f.rates[ph] = map[string]float64{}
		f.obs[ph] = map[string]int{}
	}
	f.rates[ph][model] = rate
	f.obs[ph][model] = obs
}

func (f *fakeRater) AllocationRates(ph trace.Phase, models []string) ([]float64, []int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	rates, obs := make([]float64, len(models)), make([]int, len(models))
	for i, m := range models {
		rates[i], obs[i] = f.rates[ph][m], f.obs[ph][m]
	}
	return rates, obs
}

func mustAdaptive(t testing.TB, base AllocationPolicy, models []string, fb AllocationFeedback) *AdaptivePolicy {
	t.Helper()
	p, err := NewAdaptivePolicy(base, models, fb, AdaptiveConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewAdaptivePolicyValidation(t *testing.T) {
	base := hybridPolicy(t, "ab", "sb")
	if _, err := NewAdaptivePolicy(nil, []string{"ab"}, nil, AdaptiveConfig{}); err == nil {
		t.Error("nil base should fail")
	}
	if _, err := NewAdaptivePolicy(base, nil, nil, AdaptiveConfig{}); err == nil {
		t.Error("no models should fail")
	}
	if _, err := NewAdaptivePolicy(base, []string{"ab", "ab"}, nil, AdaptiveConfig{}); err == nil {
		t.Error("duplicate models should fail")
	}
	p := mustAdaptive(t, base, []string{"ab", "sb"}, nil)
	if got := p.Models(); !slices.Equal(got, []string{"ab", "sb"}) {
		t.Errorf("Models = %q", got)
	}
}

// TestAdaptiveWarmupFallsBackToBase: with a cold rater (or none at all)
// every allocation is exactly the base policy's, for every phase and k.
func TestAdaptiveWarmupFallsBackToBase(t *testing.T) {
	base := hybridPolicy(t, "ab", "sb")
	cold := newFakeRater()
	cold.set(trace.Navigation, "ab", 0.9, allocWarmup-1)
	cold.set(trace.Navigation, "sb", 0.1, allocWarmup-1)
	for _, p := range []*AdaptivePolicy{
		mustAdaptive(t, base, []string{"ab", "sb"}, nil),
		mustAdaptive(t, base, []string{"ab", "sb"}, cold),
	} {
		for _, ph := range []trace.Phase{trace.Foraging, trace.Navigation, trace.Sensemaking} {
			for k := 0; k <= 8; k++ {
				want := base.Allocations(ph, k)
				got := p.Allocations(ph, k)
				if len(got) != len(want) {
					t.Fatalf("cold Allocations(%v, %d) = %v, want base %v", ph, k, got, want)
				}
				for m, n := range want {
					if got[m] != n {
						t.Fatalf("cold Allocations(%v, %d) = %v, want base %v", ph, k, got, want)
					}
				}
			}
		}
	}
}

// TestAdaptivePhaseTotalWarmsStarvedModel: a model the prior never allots
// slots to (AB in Sensemaking under the hybrid table) can never warm its
// own bucket; phase-wide evidence must unblock reallocation anyway, and the
// floor must then hand the starved model its exploration share.
func TestAdaptivePhaseTotalWarmsStarvedModel(t *testing.T) {
	base := hybridPolicy(t, "ab", "sb")
	r := newFakeRater()
	r.set(trace.Sensemaking, "ab", 0, 0)
	p := mustAdaptive(t, base, []string{"ab", "sb"}, r)
	// 2 models x allocWarmup outcomes in total, all of them sb's.
	r.set(trace.Sensemaking, "sb", 0.8, 2*allocWarmup)
	alloc := p.Allocations(trace.Sensemaking, 5)
	if got := p.Shares()[trace.Sensemaking]["ab"]; got <= 0 {
		t.Fatalf("phase-total evidence should warm the phase: ab share still %v", got)
	}
	if alloc["ab"] < 1 {
		t.Errorf("starved model got no exploration slot: %v", alloc)
	}
	// Each round of fresh evidence moves ab one step toward the floor.
	for i := 1; i <= int(allocFloor/allocMaxStep); i++ {
		r.set(trace.Sensemaking, "sb", 0.8, 2*allocWarmup+i)
		p.Allocations(trace.Sensemaking, 5)
	}
	shares := p.Shares()[trace.Sensemaking]
	if shares["ab"] < allocFloor-1e-9 {
		t.Errorf("ab share %v below floor %v", shares["ab"], allocFloor)
	}
}

// TestAdaptiveFloorClamping: however lopsided the observed rates, the
// losing model's target never drops below the floor (and with more models
// than 1/floor, the floor clamps to an equal split).
func TestAdaptiveFloorClamping(t *testing.T) {
	base := hybridPolicy(t, "ab", "sb")
	r := newFakeRater()
	r.set(trace.Navigation, "sb", 0.0, 100)
	p := mustAdaptive(t, base, []string{"ab", "sb"}, r)
	for i := 0; i < 50; i++ {
		r.set(trace.Navigation, "ab", 1.0, 100+i) // fresh evidence each round
		p.Allocations(trace.Navigation, 5)
	}
	shares := p.Shares()[trace.Navigation]
	if math.Abs(shares["sb"]-allocFloor) > 1e-9 {
		t.Errorf("loser share = %v, want the floor %v", shares["sb"], allocFloor)
	}
	if math.Abs(shares["ab"]-(1-allocFloor)) > 1e-9 {
		t.Errorf("winner share = %v, want %v", shares["ab"], 1-allocFloor)
	}
	// Eleven models cannot each keep 0.1: the floor clamps to 1/11, which
	// leaves nothing to split by rate, so the shares converge to equal.
	models := []string{"ab", "sb", "c", "d", "e", "f", "g", "h", "i", "j", "k"}
	p2 := mustAdaptive(t, base, models, r)
	for i := 0; i < 100; i++ {
		r.set(trace.Navigation, "ab", 1.0, 200+i)
		p2.Allocations(trace.Navigation, 11)
	}
	for m, s := range p2.Shares()[trace.Navigation] {
		if math.Abs(s-1.0/11) > 1e-9 {
			t.Errorf("over-floor share %s = %v, want 1/11", m, s)
		}
	}
}

// TestAdaptiveHysteresisBounds: one reallocation moves a share by at most
// allocMaxStep, whatever the target; repeated reallocations (each backed by
// new evidence) converge monotonically — and calls WITHOUT new evidence do
// not move shares at all, so call rate alone never drives drift.
func TestAdaptiveHysteresisBounds(t *testing.T) {
	base := hybridPolicy(t, "ab", "sb")
	r := newFakeRater()
	r.set(trace.Navigation, "ab", 0.0, 100) // prior 0.8 -> target floor 0.1
	r.set(trace.Navigation, "sb", 1.0, 100)
	const step = allocMaxStep
	p := mustAdaptive(t, base, []string{"ab", "sb"}, r)
	prev := 0.8 // the hybrid prior at k=5: 4 of 5 slots to AB
	for i := 0; i < 50; i++ {
		r.set(trace.Navigation, "sb", 1.0, 101+i) // fresh evidence each round
		p.Allocations(trace.Navigation, 5)
		cur := p.Shares()[trace.Navigation]["ab"]
		if d := prev - cur; d < -1e-9 || d > step+1e-9 {
			t.Fatalf("step %d moved ab share by %v (from %v to %v), bound is %v", i, d, prev, cur, step)
		}
		prev = cur
	}
	if math.Abs(prev-allocFloor) > 1e-9 {
		t.Errorf("ab share = %v after convergence, want the floor %v", prev, allocFloor)
	}
	// No new evidence: however many times the engines re-allocate
	// (session churn), shares must not move.
	for i := 0; i < 10; i++ {
		p.Allocations(trace.Navigation, 5)
	}
	if got := p.Shares()[trace.Navigation]["ab"]; got != prev {
		t.Errorf("shares drifted from %v to %v with no new evidence", prev, got)
	}
}

// TestAdaptiveThreeModelStepInvariants: with more than two models the
// share movements are asymmetric; every model's per-step move must still
// respect allocMaxStep, the vector must stay normalized without
// distortion, and no model may dip below the floor on its way to a target
// at or above it.
func TestAdaptiveThreeModelStepInvariants(t *testing.T) {
	base := hybridPolicy(t, "a", "b") // model c: prior share 0
	r := newFakeRater()
	r.set(trace.Navigation, "a", 0.05, 100)
	r.set(trace.Navigation, "b", 0.9, 100)
	r.set(trace.Navigation, "c", 0.45, 100)
	const step = allocMaxStep
	p := mustAdaptive(t, base, []string{"a", "b", "c"}, r)
	p.Allocations(trace.Navigation, 6) // initializes the prior from the base table
	prev := p.Shares()[trace.Navigation]
	for i := 0; i < 100; i++ {
		r.set(trace.Navigation, "a", 0.05, 101+i)
		p.Allocations(trace.Navigation, 6)
		cur := p.Shares()[trace.Navigation]
		sum := 0.0
		for m, s := range cur {
			if d := math.Abs(s - prev[m]); d > step+1e-9 {
				t.Fatalf("round %d: model %s moved %v, bound %v (prev %v cur %v)", i, m, d, step, prev, cur)
			}
			// A model whose start and target are both >= floor must never
			// dip under it mid-flight (c ramps up from 0, so exempt it
			// until it first reaches the floor).
			if prevS := prev[m]; prevS >= 0.1-1e-9 && s < 0.1-1e-9 {
				t.Fatalf("round %d: model %s dipped below floor: %v -> %v", i, m, prevS, s)
			}
			sum += s
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("round %d: shares sum to %v: %v", i, sum, cur)
		}
		prev = cur
	}
	// Converged: proportional split of the 0.7 above-floor mass by rates
	// (0.05, 0.9, 0.45)/1.4 plus the 0.1 floor each.
	want := map[string]float64{"a": 0.1 + 0.7*0.05/1.4, "b": 0.1 + 0.7*0.9/1.4, "c": 0.1 + 0.7*0.45/1.4}
	for m, w := range want {
		if math.Abs(prev[m]-w) > 1e-6 {
			t.Errorf("converged share %s = %v, want %v", m, prev[m], w)
		}
	}
}

// TestAdaptiveRoundingSumsToK: for any share shape the integer allocations
// sum to exactly k, and when the budget covers every model no
// positive-share model is rounded to zero.
func TestAdaptiveRoundingSumsToK(t *testing.T) {
	cases := []struct {
		name   string
		shares map[string]float64
		models []string
	}{
		{"even pair", map[string]float64{"a": 0.5, "b": 0.5}, []string{"a", "b"}},
		{"lopsided pair", map[string]float64{"a": 0.9, "b": 0.1}, []string{"a", "b"}},
		{"extreme pair", map[string]float64{"a": 0.99, "b": 0.01}, []string{"a", "b"}},
		{"thirds", map[string]float64{"a": 1.0 / 3, "b": 1.0 / 3, "c": 1.0 / 3}, []string{"a", "b", "c"}},
		{"mixed trio", map[string]float64{"a": 0.55, "b": 0.35, "c": 0.1}, []string{"a", "b", "c"}},
		{"zero share", map[string]float64{"a": 1, "b": 0}, []string{"a", "b"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for k := 0; k <= 13; k++ {
				got := roundShares(tc.shares, tc.models, k)
				sum := 0
				for m, n := range got {
					if n <= 0 {
						t.Fatalf("k=%d: zero/negative count for %s in %v", k, m, got)
					}
					sum += n
				}
				if sum != k {
					t.Fatalf("k=%d: allocations %v sum to %d", k, got, sum)
				}
				if k >= len(tc.models) {
					for _, m := range tc.models {
						if tc.shares[m] > 0 && got[m] == 0 {
							t.Fatalf("k=%d: positive-share model %s starved in %v", k, m, got)
						}
					}
				}
			}
		})
	}
}

// TestAdaptiveEdgeBudgets: k=0 allocates nothing, k=1 routes the whole
// budget to the higher-share model.
func TestAdaptiveEdgeBudgets(t *testing.T) {
	base := hybridPolicy(t, "ab", "sb")
	r := newFakeRater()
	r.set(trace.Navigation, "ab", 0.1, 100)
	p := mustAdaptive(t, base, []string{"ab", "sb"}, r)
	if got := p.Allocations(trace.Navigation, 0); len(got) != 0 {
		t.Errorf("k=0 should allocate nothing, got %v", got)
	}
	for i := 0; i < 50; i++ { // move shares to the learned split
		r.set(trace.Navigation, "sb", 0.9, 100+i)
		p.Allocations(trace.Navigation, 5)
	}
	got := p.Allocations(trace.Navigation, 1)
	if got["sb"] != 1 || len(got) != 1 {
		t.Errorf("k=1 = %v, want all to the higher-share model", got)
	}
}

// TestAdaptiveDeterministicRoundingTies: equal shares must break ties by
// model name, not map iteration order, so allocations are reproducible.
func TestAdaptiveDeterministicRoundingTies(t *testing.T) {
	shares := map[string]float64{"a": 0.5, "b": 0.5}
	first := roundShares(shares, []string{"a", "b"}, 3)
	for i := 0; i < 100; i++ {
		got := roundShares(shares, []string{"a", "b"}, 3)
		if got["a"] != first["a"] || got["b"] != first["b"] {
			t.Fatalf("rounding not deterministic: %v vs %v", got, first)
		}
	}
	if first["a"] != 2 || first["b"] != 1 {
		t.Errorf("tie at k=3 = %v, want a=2 b=1 (name order)", first)
	}
}

// TestEngineWithAdaptiveAllocation: an engine takes the deployment's
// shared adaptive policy as its policy, NewEngine validates the policy's
// models without mutating it, and a warmed policy reshapes what the engine
// actually prefetches.
func TestEngineWithAdaptiveAllocation(t *testing.T) {
	db := testDBMS(t)
	mom := recommend.NewMomentum()
	ab, err := recommend.NewAB(3, zoomTraces(4))
	if err != nil {
		t.Fatal(err)
	}
	base := hybridPolicy(t, mom.Name(), ab.Name())
	r := newFakeRater()
	p := mustAdaptive(t, base, []string{mom.Name(), ab.Name()}, r)
	eng, err := NewEngine(db, nil, p, []recommend.Model{mom, ab}, Config{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	// A policy referencing models the engine lacks must fail validation.
	ghost := mustAdaptive(t, hybridPolicy(t, "ghost", ab.Name()),
		[]string{"ghost", ab.Name()}, nil)
	if _, err := NewEngine(db, nil, ghost, []recommend.Model{mom, ab}, Config{K: 4}); err == nil {
		t.Error("an adaptive policy naming an unknown model should fail")
	}
	resp, err := eng.Request(tile.Coord{})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Prefetched) == 0 {
		t.Error("engine prefetched nothing: it never installed allocations from the adaptive policy")
	}
}

// TestAdaptiveAllocationConcurrent is the -race suite for the new loop:
// many engines drain outcomes into one collector and re-allocate through
// one shared policy while scrapers snapshot shares, rates and the curve —
// the exact concurrency shape of a deployment under /stats and /metrics
// scrapes (modeled on the PR 2 stress suite).
func TestAdaptiveAllocationConcurrent(t *testing.T) {
	fc := prefetch.NewFeedbackCollector(5)
	base := hybridPolicy(t, "ab", "sb")
	p := mustAdaptive(t, base, []string{"ab", "sb"}, fc)
	phases := []trace.Phase{trace.Foraging, trace.Navigation, trace.Sensemaking}
	models := []string{"ab", "sb"}
	var wg sync.WaitGroup

	// Observers: the engines' outcome-drain loop.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				ph := phases[i%len(phases)]
				fc.Observe(ph, models[(i+g)%2], i%5, (i+g)%3 != 0)
			}
		}(g)
	}
	// Allocators: engines re-splitting the budget per request.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				ph := phases[(i+g)%len(phases)]
				k := i % 9
				alloc := p.Allocations(ph, k)
				sum := 0
				for _, n := range alloc {
					sum += n
				}
				if sum != k && k > 0 {
					t.Errorf("allocations %v sum to %d, want %d", alloc, sum, k)
					return
				}
			}
		}(g)
	}
	// Scrapers: /stats and /metrics snapshotting while everything churns.
	// Each Shares snapshot must be internally consistent (phase shares sum
	// to 1) no matter how the reallocations interleave.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				for ph, shares := range p.Shares() {
					sum := 0.0
					for _, s := range shares {
						sum += s
					}
					if math.Abs(sum-1) > 1e-6 {
						t.Errorf("phase %v share snapshot sums to %v", ph, sum)
						return
					}
				}
				_ = fc.Curve()
				_ = fc.Observations()
				for _, ph := range phases {
					_, _ = fc.AllocationRates(ph, models)
				}
			}
		}()
	}
	wg.Wait()
	// After the churn the phases are long warmed; shares must have moved.
	for _, ph := range phases {
		if _, obs := fc.AllocationRates(ph, models); !warmed(obs) {
			t.Errorf("phase %v never warmed (%d observations total)", ph, fc.Observations())
		}
	}
}
