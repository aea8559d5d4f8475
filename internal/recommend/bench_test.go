package recommend

import (
	"testing"

	"forecache/internal/tile"
	"forecache/internal/trace"
)

// benchHotspot builds a warmed table: 512 tiles at the candidate level
// plus traffic on two neighbor levels.
func benchHotspot() *Hotspot {
	h := NewHotspot(HotspotConfig{})
	for i := 0; i < 2048; i++ {
		h.ObserveConsumption(tile.Coord{Level: 3, Y: i % 8, X: (i / 8) % 8}, trace.Foraging)
		if i%4 == 0 {
			h.ObserveConsumption(tile.Coord{Level: 2, Y: i % 4, X: i % 8}, trace.Navigation)
		}
	}
	return h
}

// BenchmarkHotspotPredict measures the per-request cost of ranking the
// d=1 candidate set against the shared table: the price every session
// pays per request once the hotspot model holds prefetch slots.
func BenchmarkHotspotPredict(b *testing.B) {
	h := benchHotspot()
	cur := tile.Coord{Level: 3, Y: 4, X: 4}
	cands := Candidates(gridBounds{maxLevel: 5}, cur, 1)
	req := trace.Request{Coord: cur}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Predict(req, cands, nil)
	}
}

// BenchmarkHotspotObserve measures one consumption update: the per-hit
// cost the engines' outcome drain adds with the hotspot registered.
func BenchmarkHotspotObserve(b *testing.B) {
	h := benchHotspot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.ObserveConsumption(tile.Coord{Level: 3, Y: i % 16, X: i % 32}, trace.Foraging)
	}
}

// One consumption update of a tile the table already holds — the engines'
// outcome drain pays it per hit — must stay free of allocation.
func TestHotspotObserveDoesNotAllocate(t *testing.T) {
	h := benchHotspot()
	c := tile.Coord{Level: 3, Y: 4, X: 4}
	if n := testing.AllocsPerRun(100, func() { h.ObserveConsumption(c, trace.Foraging) }); n != 0 {
		t.Errorf("ObserveConsumption allocates %v times, want 0", n)
	}
}

// BenchmarkHotspotObserveParallel is the contended shape: every session
// engine of a deployment feeds the same lock-striped table.
func BenchmarkHotspotObserveParallel(b *testing.B) {
	h := benchHotspot()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			h.ObserveConsumption(tile.Coord{Level: 3, Y: i % 16, X: i % 32}, trace.Foraging)
			i++
		}
	})
}

// BenchmarkRegistryBuild measures the deployment's one-time construction
// pass over the 3-spec registry (Markov training on 16 short traces,
// hotspot seeding, SB stamp) — the cost NewServer pays once and sessions
// never do.
func BenchmarkRegistryBuild(b *testing.B) {
	traces := make([]*trace.Trace, 0, 16)
	base := registryTraces()
	for i := 0; len(traces) < 16; i++ {
		traces = append(traces, base[i%len(base)])
	}
	specs := DefaultSpecs(3, []string{"sift"}, &HotspotConfig{})
	reg, err := NewRegistry(specs...)
	if err != nil {
		b.Fatal(err)
	}
	env := Env{Tiles: &fakeSource{}, Traces: traces}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := reg.Build(env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRegistrySession measures stamping one session's model set out
// of a built Set: the per-session construction cost, which must stay O(1)
// in deployment size.
func BenchmarkRegistrySession(b *testing.B) {
	reg, err := NewRegistry(DefaultSpecs(3, []string{"sift"}, &HotspotConfig{})...)
	if err != nil {
		b.Fatal(err)
	}
	set, err := reg.Build(Env{Tiles: &fakeSource{}, Traces: registryTraces()})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if models := set.Session(); len(models) != 3 {
			b.Fatal("bad session set")
		}
	}
}
