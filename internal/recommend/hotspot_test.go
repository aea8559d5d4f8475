package recommend

import (
	"math"
	"sync"
	"testing"

	"forecache/internal/tile"
	"forecache/internal/trace"
)

// share is the score Predict gives c: its share of the recent consumption
// at its zoom level.
func share(h *Hotspot, c tile.Coord) float64 {
	return h.Predict(trace.Request{Coord: c}, []Candidate{{Coord: c}}, nil)[0].Score
}

// TestHotspotRankingDeterministic: consumption counts order the candidate
// ranking, and the untouched candidates tie at score 0 in coordinate
// order — the whole ranking is reproducible.
func TestHotspotRankingDeterministic(t *testing.T) {
	b := gridBounds{maxLevel: 4}
	h := NewHotspot(HotspotConfig{})
	cur := tile.Coord{Level: 2, Y: 1, X: 1}
	popular := tile.Coord{Level: 2, Y: 1, X: 2}
	warm := tile.Coord{Level: 2, Y: 0, X: 1}
	for i := 0; i < 5; i++ {
		h.ObserveConsumption(popular, trace.Foraging)
	}
	h.ObserveConsumption(warm, trace.Foraging)

	cands := Candidates(b, cur, 1)
	first := h.Predict(trace.Request{Coord: cur}, cands, nil)
	if first[0].Coord != popular {
		t.Fatalf("top candidate = %v, want the popular %v", first[0].Coord, popular)
	}
	if first[1].Coord != warm {
		t.Fatalf("second candidate = %v, want the warm %v", first[1].Coord, warm)
	}
	if first[0].Score <= first[1].Score || first[1].Score <= 0 {
		t.Fatalf("scores not ordered by consumption: %v", first[:3])
	}
	// Every untouched candidate scores 0 and the full order is stable.
	for i := 2; i < len(first); i++ {
		if first[i].Score != 0 {
			t.Errorf("cold candidate %v has score %v, want 0", first[i].Coord, first[i].Score)
		}
	}
	for i := 0; i < 20; i++ {
		again := h.Predict(trace.Request{Coord: cur}, cands, nil)
		for j := range first {
			if again[j].Coord != first[j].Coord {
				t.Fatalf("ranking not deterministic at %d: %v vs %v", j, again[j], first[j])
			}
		}
	}
}

// TestHotspotDecayForgetsStaleTiles: a burst of newer consumption at the
// same level overtakes an old hotspot — the table tracks what is popular
// NOW.
func TestHotspotDecayForgetsStaleTiles(t *testing.T) {
	h := NewHotspot(HotspotConfig{})
	old := tile.Coord{Level: 3, Y: 1, X: 1}
	fresh := tile.Coord{Level: 3, Y: 2, X: 2}
	for i := 0; i < 640; i++ {
		h.ObserveConsumption(old, trace.Foraging)
	}
	if share(h, old) <= share(h, fresh) {
		t.Fatal("old hotspot should dominate before the shift")
	}
	for i := 0; i < 7.5*hotspotHalfLife; i++ {
		h.ObserveConsumption(fresh, trace.Foraging)
	}
	if share(h, fresh) <= share(h, old) {
		t.Errorf("after the shift fresh share %v should exceed stale %v",
			share(h, fresh), share(h, old))
	}
	// 7.5 half-lives: the stale share must be tiny.
	if share(h, old) > 0.02 {
		t.Errorf("stale share %v did not decay", share(h, old))
	}
}

// TestHotspotSharesPerLevel: shares are normalized within a zoom level, so
// a tile's score is comparable across levels with wildly different
// traffic volumes.
func TestHotspotSharesPerLevel(t *testing.T) {
	h := NewHotspot(HotspotConfig{})
	deep := tile.Coord{Level: 4, Y: 3, X: 3}
	shallow := tile.Coord{Level: 1, Y: 0, X: 0}
	// The deep level sees 100 observations, 50 of them for our tile; the
	// shallow level sees 2, 1 of it ours. Both tiles own ~half their
	// level's recent consumption.
	for i := 0; i < 100; i++ {
		c := deep
		if i%2 == 1 {
			c = tile.Coord{Level: 4, Y: 0, X: i % 4}
		}
		h.ObserveConsumption(c, trace.Foraging)
	}
	h.ObserveConsumption(shallow, trace.Foraging)
	h.ObserveConsumption(tile.Coord{Level: 1, Y: 1, X: 1}, trace.Foraging)

	ds, ss := share(h, deep), share(h, shallow)
	if math.Abs(ds-0.5) > 0.05 || math.Abs(ss-0.5) > 0.05 {
		t.Errorf("shares deep=%v shallow=%v, want both ~0.5", ds, ss)
	}
	if share(h, tile.Coord{Level: 2, Y: 0, X: 0}) != 0 {
		t.Error("level with no consumption must score 0")
	}
}

// TestHotspotModelContract: the Model interface behaves as documented —
// Predict only reads the shared table, so one session's rankings leave
// every other session's scores as they were.
func TestHotspotModelContract(t *testing.T) {
	h := NewHotspot(HotspotConfig{})
	if h.Name() != "hotspot" {
		t.Fatalf("Name = %q", h.Name())
	}
	c := tile.Coord{Level: 2, Y: 1, X: 1}
	h.ObserveConsumption(c, trace.Foraging)
	before := share(h, c)
	other := tile.Coord{Level: 2, Y: 0, X: 0}
	h.Predict(trace.Request{Coord: other}, Candidates(gridBounds{maxLevel: 4}, other, 1), trace.NewHistory(3))
	if got := share(h, c); got != before {
		t.Errorf("Predict changed the shared table: %v -> %v", before, got)
	}
}

// TestHotspotConcurrent is the -race suite: many goroutines observe and
// predict against one shared table, the deployment's actual concurrency
// shape (every session engine feeds and reads the same instance).
func TestHotspotConcurrent(t *testing.T) {
	b := gridBounds{maxLevel: 4}
	h := NewHotspot(HotspotConfig{})
	cur := tile.Coord{Level: 2, Y: 1, X: 1}
	cands := Candidates(b, cur, 1)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				h.ObserveConsumption(tile.Coord{Level: 2, Y: (g + i) % 4, X: i % 4}, trace.Foraging)
			}
		}(g)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				out := h.Predict(trace.Request{Coord: cur}, cands, nil)
				if len(out) != len(cands) {
					t.Errorf("predict returned %d of %d candidates", len(out), len(cands))
					return
				}
				for _, r := range out {
					if r.Score < 0 || r.Score > 1 {
						t.Errorf("share %v outside [0,1]", r.Score)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
