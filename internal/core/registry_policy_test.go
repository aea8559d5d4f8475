package core

import (
	"strings"
	"testing"

	"forecache/internal/prefetch"
	"forecache/internal/recommend"
	"forecache/internal/trace"
)

// specColumns is the default registry prior table (two-way, or three-way
// with the hotspot column), as a policy input.
func specColumns(tb testing.TB, hotspot bool) []recommend.PriorColumn {
	tb.Helper()
	var hs *recommend.HotspotConfig
	if hotspot {
		hs = &recommend.HotspotConfig{}
	}
	specs := recommend.DefaultSpecs(3, []string{"sift"}, hs)
	cols := make([]recommend.PriorColumn, len(specs))
	for i, s := range specs {
		cols[i] = recommend.PriorColumn{Model: s.Name, Claim: s.Prior}
	}
	return cols
}

// hybridPolicy is the §5.4.3 table over two model names, built the way
// deployments build it: the default registry's AB column (first four slots
// outside Sensemaking) for ab and its remainder column for sb.
func hybridPolicy(tb testing.TB, ab, sb string) *RegistryPolicy {
	tb.Helper()
	cols := specColumns(tb, false)
	cols[0].Model, cols[1].Model = ab, sb
	p, err := NewRegistryPolicy(cols)
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// TestRegistryPolicyMatchesHybrid: the two-model registry table — the only
// static allocation table deployments have — must reproduce the paper's
// §5.4.3 rule, written out here independently, for every phase and budget:
// Sensemaking gives all k slots to SB; every other phase gives the first
// min(k, 4) to AB and the remainder to SB.
func TestRegistryPolicyMatchesHybrid(t *testing.T) {
	rp, err := NewRegistryPolicy(specColumns(t, false))
	if err != nil {
		t.Fatal(err)
	}
	for _, ph := range append(trace.AllPhases(), trace.PhaseUnknown) {
		for k := 0; k <= 9; k++ {
			want := map[string]int{}
			ab := min(k, 4)
			if ph == trace.Sensemaking {
				ab = 0
			}
			if ab > 0 {
				want["markov3"] = ab
			}
			if k > ab {
				want["sb:sift"] = k - ab
			}
			got := rp.Allocations(ph, k)
			if len(got) != len(want) {
				t.Fatalf("phase %v k=%d: registry %v, §5.4.3 %v", ph, k, got, want)
			}
			for m, n := range want {
				if got[m] != n {
					t.Fatalf("phase %v k=%d: registry %v, §5.4.3 %v", ph, k, got, want)
				}
			}
		}
	}
	if models := rp.Models(); len(models) != 2 || models[0] != "markov3" || models[1] != "sb:sift" {
		t.Errorf("Models() = %v", models)
	}
}

// TestRegistryPolicyThreeWay pins the extended table at the headline k=5
// and asserts the invariants that must hold at every k: allocations sum to
// exactly k and never name an unregistered model.
func TestRegistryPolicyThreeWay(t *testing.T) {
	rp, err := NewRegistryPolicy(specColumns(t, true))
	if err != nil {
		t.Fatal(err)
	}
	want := map[trace.Phase]map[string]int{
		trace.Foraging:    {"markov3": 3, "hotspot": 1, "sb:sift": 1},
		trace.Navigation:  {"markov3": 3, "hotspot": 1, "sb:sift": 1},
		trace.Sensemaking: {"hotspot": 1, "sb:sift": 4},
	}
	for ph, exp := range want {
		got := rp.Allocations(ph, 5)
		if len(got) != len(exp) {
			t.Fatalf("phase %v: %v, want %v", ph, got, exp)
		}
		for m, n := range exp {
			if got[m] != n {
				t.Fatalf("phase %v: %v, want %v", ph, got, exp)
			}
		}
	}
	registered := map[string]bool{}
	for _, m := range rp.Models() {
		registered[m] = true
	}
	for _, ph := range trace.AllPhases() {
		for k := 0; k <= 9; k++ {
			got := rp.Allocations(ph, k)
			sum := 0
			for m, n := range got {
				if !registered[m] {
					t.Fatalf("phase %v k=%d allocated to unregistered %q", ph, k, m)
				}
				if n <= 0 {
					t.Fatalf("phase %v k=%d: non-positive slot count %d", ph, k, n)
				}
				sum += n
			}
			if sum != k {
				t.Errorf("phase %v k=%d: allocations sum to %d", ph, k, sum)
			}
		}
	}
}

func TestRegistryPolicyValidation(t *testing.T) {
	if _, err := NewRegistryPolicy(nil); err == nil {
		t.Error("no columns should fail")
	}
	cols := specColumns(t, false)
	if _, err := NewRegistryPolicy(append(cols, cols[0])); err == nil {
		t.Error("duplicate model should fail")
	}
	broken := specColumns(t, false)
	broken[0].Claim = nil
	if _, err := NewRegistryPolicy(broken); err == nil {
		t.Error("nil claim should fail")
	}
}

// TestAdaptiveConfigValidate: zero means default, in-range values pass,
// out-of-range values are construction errors (the facade surfaces them
// through MiddlewareConfig / the serve flags).
func TestAdaptiveConfigValidate(t *testing.T) {
	ok := []AdaptiveConfig{
		{},
		{Floor: 0.25, Warmup: 10, MaxStep: 0.5},
		{MaxStep: 1},
	}
	for _, cfg := range ok {
		if err := cfg.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", cfg, err)
		}
	}
	bad := []AdaptiveConfig{
		{Floor: -0.1},
		{Floor: 1},
		{Floor: 1.5},
		{Warmup: -1},
		{MaxStep: -0.5},
		{MaxStep: 1.01},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", cfg)
		}
	}
	// NewAdaptivePolicy rejects the same values.
	base := hybridPolicy(t, "ab", "sb")
	if _, err := NewAdaptivePolicy(base, []string{"ab", "sb"}, nil, AdaptiveConfig{Floor: -1}); err == nil ||
		!strings.Contains(err.Error(), "floor") {
		t.Errorf("NewAdaptivePolicy with bad floor: %v", err)
	}
}

// TestAdaptiveShiftThenRecover is the dataset-shift regression for the
// allocation loop, over the REAL collector: model "a" dominates
// consumption, the learned split follows it; then the workload shifts and
// only "b" gets consumed — evidence decay (half-life on stale buckets)
// lets the split re-learn toward "b" instead of being pinned by a's
// historical rate.
func TestAdaptiveShiftThenRecover(t *testing.T) {
	fc := prefetch.NewFeedbackCollector(5)
	fc.SetAllocationHalfLife(60)
	base := hybridPolicy(t, "a", "b")
	p, err := NewAdaptivePolicy(base, []string{"a", "b"}, fc, AdaptiveConfig{
		Floor: 0.1, Warmup: 10, MaxStep: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	const ph = trace.Foraging
	share := func() (a, b float64) {
		shares := p.Shares()[ph]
		return shares["a"], shares["b"]
	}
	// Regime 1: a's prefetches get consumed, b's never do.
	for i := 0; i < 300; i++ {
		fc.Observe(ph, "a", i%5, true)
		fc.Observe(ph, "b", i%5, false)
		p.Allocations(ph, 5)
	}
	a1, b1 := share()
	if a1 < 0.8 || b1 > 0.2 {
		t.Fatalf("regime 1 shares a=%.3f b=%.3f, want a dominant", a1, b1)
	}
	alloc := p.Allocations(ph, 5)
	if alloc["a"] < 4 {
		t.Fatalf("regime 1 allocation %v, want a holding >= 4 slots", alloc)
	}

	// Regime 2 (the shift): a stops being consumed entirely — its
	// prefetches stop flowing, so its buckets go silent — while b's
	// consumption takes over. a's stale rate must decay, the target flip,
	// and the smoothed shares recover toward b.
	for i := 0; i < 600; i++ {
		fc.Observe(ph, "b", i%5, true)
		p.Allocations(ph, 5)
	}
	a2, b2 := share()
	if b2 < 0.8 || a2 > 0.2 {
		t.Errorf("after the shift shares a=%.3f b=%.3f, want b dominant (decay re-learned)", a2, b2)
	}
	alloc = p.Allocations(ph, 5)
	if alloc["b"] < 4 {
		t.Errorf("post-shift allocation %v, want b holding >= 4 slots", alloc)
	}
	// The floor held through both regimes: the losing model keeps its
	// exploration slot.
	if alloc["a"] < 1 {
		t.Errorf("post-shift allocation %v starved a below the floor slot", alloc)
	}
}
