package core

import (
	"testing"

	"forecache/internal/prefetch"
	"forecache/internal/trace"
)

// The Allocations hot path runs once per tile request in every session
// engine, so the adaptive wrapper's cost on top of the static table is a
// per-request tax. The three benchmarks bracket it: the static table
// alone, the cold wrapper (warmup check + base fallback), and the warmed
// wrapper (EWMA lookups + hysteresis step + largest-remainder rounding).

func BenchmarkAllocationsStatic(b *testing.B) {
	p := hybridPolicy(b, "markov3", "sb:sift")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Allocations(trace.Navigation, 5)
	}
}

func BenchmarkAllocationsAdaptiveCold(b *testing.B) {
	fc := prefetch.NewFeedbackCollector(5)
	base := hybridPolicy(b, "markov3", "sb:sift")
	p, err := NewAdaptivePolicy(base, []string{"markov3", "sb:sift"}, fc, AdaptiveConfig{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Allocations(trace.Navigation, 5)
	}
}

// Warmed steady state: the phase has converged and no new outcomes arrived
// since the last call — the common case (one batched rate probe, no step,
// exact-sum rounding).
func BenchmarkAllocationsAdaptiveWarmed(b *testing.B) {
	fc := prefetch.NewFeedbackCollector(5)
	base := hybridPolicy(b, "markov3", "sb:sift")
	p, err := NewAdaptivePolicy(base, []string{"markov3", "sb:sift"}, fc, AdaptiveConfig{})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		fc.Observe(trace.Navigation, "markov3", i%5, true)
		fc.Observe(trace.Navigation, "sb:sift", i%5, i%2 == 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Allocations(trace.Navigation, 5)
	}
}

// Warmed with fresh evidence every call: the upper bound, paying the
// hysteresis step (and the Observe that feeds it) on every reallocation.
func BenchmarkAllocationsAdaptiveStepping(b *testing.B) {
	fc := prefetch.NewFeedbackCollector(5)
	base := hybridPolicy(b, "markov3", "sb:sift")
	p, err := NewAdaptivePolicy(base, []string{"markov3", "sb:sift"}, fc, AdaptiveConfig{})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		fc.Observe(trace.Navigation, "markov3", i%5, true)
		fc.Observe(trace.Navigation, "sb:sift", i%5, i%2 == 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fc.Observe(trace.Navigation, "markov3", i%5, i%3 != 0)
		p.Allocations(trace.Navigation, 5)
	}
}
