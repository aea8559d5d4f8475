package cache

import (
	"slices"
	"sync"
	"testing"

	"forecache/internal/tile"
	"forecache/internal/trace"
)

func mkTile(level, y, x int) *tile.Tile {
	return &tile.Tile{
		Coord: tile.Coord{Level: level, Y: y, X: x},
		Size:  2, Attrs: []string{"v"},
		Data: [][]float64{{1, 2, 3, 4}},
	}
}

// predicted lists the coordinates of every live model-region entry, in
// Predictions order.
func predicted(m *Manager) []tile.Coord {
	var out []tile.Coord
	for _, p := range m.Predictions() {
		out = append(out, p.Tile.Coord)
	}
	return out
}

func TestLookupHitMissAccounting(t *testing.T) {
	m := NewManager(4)
	m.SetAllocations(map[string]int{"ab": 2})
	tl := mkTile(1, 0, 0)
	m.FillPredictions("ab", []*tile.Tile{tl}, trace.Foraging)

	if _, ok := m.Lookup(tl.Coord); !ok {
		t.Fatal("prefetched tile should hit")
	}
	if _, ok := m.Lookup(tile.Coord{Level: 3, Y: 1, X: 1}); ok {
		t.Fatal("absent tile should miss")
	}
	st := m.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.HitRate() != 0.5 {
		t.Errorf("HitRate = %v, want 0.5", st.HitRate())
	}
}

func TestHitRateEmpty(t *testing.T) {
	if (Stats{}).HitRate() != 0 {
		t.Error("empty stats hit rate should be 0")
	}
}

func TestFillPredictionsRespectsAllocation(t *testing.T) {
	m := NewManager(2)
	m.SetAllocations(map[string]int{"ab": 2})
	tiles := []*tile.Tile{mkTile(2, 0, 0), mkTile(2, 0, 1), mkTile(2, 1, 0)}
	m.FillPredictions("ab", tiles, trace.Foraging)
	if _, ok := m.Lookup(tiles[0].Coord); !ok {
		t.Error("first prediction should be cached")
	}
	if _, ok := m.Lookup(tiles[2].Coord); ok {
		t.Error("prediction beyond the allotment must not be cached")
	}
	st := m.Stats()
	if st.Prefetched != 2 {
		t.Errorf("Prefetched = %d, want 2", st.Prefetched)
	}
}

func TestFillPredictionsUnknownModel(t *testing.T) {
	m := NewManager(2)
	m.FillPredictions("ghost", []*tile.Tile{mkTile(1, 0, 0)}, trace.Foraging)
	if len(predicted(m)) != 0 {
		t.Error("unknown model has zero allotment; nothing should be cached")
	}
}

func TestSetAllocationsTrims(t *testing.T) {
	m := NewManager(2)
	m.SetAllocations(map[string]int{"ab": 3})
	m.FillPredictions("ab", []*tile.Tile{mkTile(2, 0, 0), mkTile(2, 0, 1), mkTile(2, 1, 1)}, trace.Foraging)
	m.SetAllocations(map[string]int{"ab": 1})
	if got := predicted(m); len(got) != 1 {
		t.Errorf("after trim the region holds %v, want 1 tile", got)
	}
	m.SetAllocations(map[string]int{"sb": 4}) // ab loses its region entirely
	if got := predicted(m); len(got) != 0 {
		t.Errorf("after removing ab the cache predicts %v, want nothing", got)
	}
	tiles := []*tile.Tile{mkTile(3, 0, 0), mkTile(3, 0, 1), mkTile(3, 0, 2), mkTile(3, 0, 3), mkTile(3, 1, 0)}
	m.FillPredictions("sb", tiles, trace.Foraging)
	m.FillPredictions("ab", tiles, trace.Foraging)
	if got := predicted(m); len(got) != 4 {
		t.Errorf("after allotting sb 4 slots the cache predicts %v, want sb's first 4 tiles", got)
	}
}

func TestNegativeAllocationClamped(t *testing.T) {
	m := NewManager(2)
	m.SetAllocations(map[string]int{"ab": -5})
	m.FillPredictions("ab", []*tile.Tile{mkTile(1, 0, 0)}, trace.Foraging)
	if got := predicted(m); len(got) != 0 {
		t.Errorf("negative allocation should clamp to 0, but the cache predicts %v", got)
	}
}

func TestRecentLRUEviction(t *testing.T) {
	m := NewManager(2)
	a, b, c := mkTile(3, 0, 0), mkTile(3, 0, 1), mkTile(3, 0, 2)
	m.InsertRecent(a)
	m.InsertRecent(b)
	// Touch a so b becomes the LRU victim.
	if _, ok := m.Lookup(a.Coord); !ok {
		t.Fatal("a should hit")
	}
	m.InsertRecent(c)
	if _, ok := m.Lookup(b.Coord); ok {
		t.Error("b should have been evicted as least recently used")
	}
	_, okA := m.Lookup(a.Coord)
	_, okC := m.Lookup(c.Coord)
	if !okA || !okC {
		t.Error("a and c should remain")
	}
}

func TestInsertRecentDuplicate(t *testing.T) {
	m := NewManager(2)
	a := mkTile(1, 0, 0)
	m.InsertRecent(a)
	m.InsertRecent(a)
	if n := m.recent.Len(); n != 1 {
		t.Errorf("LRU holds %d tiles, want 1 after duplicate insert", n)
	}
	m.InsertRecent(nil) // must not panic
}

func TestClearKeepsAllocations(t *testing.T) {
	m := NewManager(2)
	m.SetAllocations(map[string]int{"ab": 2})
	m.FillPredictions("ab", []*tile.Tile{mkTile(1, 0, 0)}, trace.Foraging)
	m.InsertRecent(mkTile(2, 0, 0))
	m.Clear()
	if got := predicted(m); len(got) != 0 {
		t.Errorf("the cache predicts %v after Clear", got)
	}
	if _, ok := m.Lookup(tile.Coord{Level: 2}); ok {
		t.Error("a recent tile survived Clear")
	}
	m.FillPredictions("ab", []*tile.Tile{mkTile(1, 0, 0), mkTile(1, 0, 1), mkTile(1, 1, 0)}, trace.Foraging)
	if got := predicted(m); len(got) != 2 {
		t.Errorf("after Clear the ab region holds %v, want the 2 slots it was allotted", got)
	}
}

func TestResetStats(t *testing.T) {
	m := NewManager(2)
	m.Lookup(tile.Coord{Level: 1})
	m.ResetStats()
	if st := m.Stats(); st.Misses != 0 {
		t.Errorf("stats after reset = %+v", st)
	}
	m.Lookup(tile.Coord{Level: 1})
	if st, life := m.Stats(), m.LifetimeStats(); st.Misses != 1 || life.Misses != 2 {
		t.Errorf("after reset + one miss: stats %+v, lifetime %+v, want 1 and 2 misses", st, life)
	}
}

func TestConcurrentAccess(t *testing.T) {
	m := NewManager(8)
	m.SetAllocations(map[string]int{"ab": 4, "sb": 4})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tl := mkTile(3, g, i%8)
				switch i % 4 {
				case 0:
					m.InsertRecent(tl)
				case 1:
					m.FillPredictions("ab", []*tile.Tile{tl}, trace.Foraging)
				case 2:
					m.Lookup(tl.Coord)
				default:
					m.SetAllocations(map[string]int{"ab": i % 5, "sb": 4})
				}
			}
		}(g)
	}
	wg.Wait()
	// No race (run with -race) and stats are internally consistent.
	st := m.Stats()
	if st.Hits < 0 || st.Misses < 0 {
		t.Errorf("stats = %+v", st)
	}
}

// TestConcurrentDeliveriesAcrossGenerations: deliveries racing lookups and
// generation changes (run with -race, at several CPU counts) land only
// under the generation they were requested in.
func TestConcurrentDeliveriesAcrossGenerations(t *testing.T) {
	m := NewManager(4)
	m.SetAllocations(map[string]int{"ab": 4, "old": 4})
	stale := m.Generation()
	m.Clear()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tl := mkTile(3, g, i%8)
				switch i % 4 {
				case 0:
					m.InsertPrediction("ab", m.Generation(), tl, i%4, trace.Foraging)
				case 1:
					m.InsertPrediction("old", stale, tl, 0, trace.Foraging)
				case 2:
					m.Lookup(tl.Coord)
				default:
					m.Clear()
				}
			}
		}(g)
	}
	wg.Wait()
	for _, p := range m.Predictions() {
		if p.Model == "old" {
			t.Fatalf("a delivery from generation %d landed: %+v", stale, p)
		}
	}
	fresh := mkTile(5, 0, 0)
	m.InsertPrediction("ab", m.Generation(), fresh, 0, trace.Foraging)
	if !slices.Contains(predicted(m), fresh.Coord) {
		t.Error("a delivery from the current generation must land")
	}
}

func BenchmarkLookup(b *testing.B) {
	m := NewManager(8)
	m.SetAllocations(map[string]int{"ab": 4})
	var tiles []*tile.Tile
	for i := 0; i < 4; i++ {
		tiles = append(tiles, mkTile(4, 0, i))
	}
	m.FillPredictions("ab", tiles, trace.Foraging)
	c := tiles[3].Coord
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Lookup(c)
	}
}

// A Lookup hit is on every /tile request's path and must stay free of
// allocation.
func TestLookupHitDoesNotAllocate(t *testing.T) {
	m := NewManager(8)
	m.SetAllocations(map[string]int{"ab": 4})
	tl := mkTile(4, 0, 3)
	m.FillPredictions("ab", []*tile.Tile{tl}, trace.Foraging)
	if n := testing.AllocsPerRun(100, func() {
		if _, ok := m.Lookup(tl.Coord); !ok {
			t.Fatal("lookup missed a filled prediction")
		}
	}); n != 0 {
		t.Errorf("Lookup hit allocates %v times, want 0", n)
	}
}

func TestInsertPredictionRingBehavior(t *testing.T) {
	m := NewManager(2)
	m.SetAllocations(map[string]int{"ab": 2})
	a, b, c := mkTile(2, 0, 0), mkTile(2, 0, 1), mkTile(2, 1, 0)
	m.InsertPrediction("ab", 0, a, 0, trace.Foraging)
	m.InsertPrediction("ab", 0, b, 1, trace.Foraging)
	if got := predicted(m); !slices.Contains(got, a.Coord) || !slices.Contains(got, b.Coord) {
		t.Fatalf("both inserted predictions should be cached, got %v", got)
	}
	// A third insert evicts the oldest (a).
	m.InsertPrediction("ab", 0, c, 2, trace.Foraging)
	if got := predicted(m); slices.Contains(got, a.Coord) {
		t.Error("oldest prediction should have been evicted")
	}
	if got := predicted(m); !slices.Contains(got, b.Coord) || !slices.Contains(got, c.Coord) {
		t.Error("newest two predictions should remain")
	}
	// Re-inserting an existing coordinate refreshes, not duplicates.
	m.InsertPrediction("ab", 0, b, 1, trace.Foraging)
	st := m.Stats()
	if st.Prefetched != 4 {
		t.Errorf("Prefetched = %d, want 4", st.Prefetched)
	}
	if st.Evicted != 1 {
		t.Errorf("Evicted = %d, want 1", st.Evicted)
	}
	var order []tile.Coord
	for _, p := range m.Predictions() {
		order = append(order, p.Tile.Coord)
	}
	if want := []tile.Coord{b.Coord, c.Coord}; !slices.Equal(order, want) {
		t.Errorf("region = %v, want the refreshed entry first %v", order, want)
	}
}

// TestInsertPredictionDropsOlderGeneration: a delivery requested before a
// Clear never lands; one requested after does.
func TestInsertPredictionDropsOlderGeneration(t *testing.T) {
	m := NewManager(2)
	m.SetAllocations(map[string]int{"ab": 2})
	stale := m.Generation()
	m.Clear()
	m.InsertPrediction("ab", stale, mkTile(2, 0, 0), 0, trace.Foraging)
	if len(predicted(m)) != 0 {
		t.Fatal("a delivery from an older generation must be dropped")
	}
	m.InsertPrediction("ab", m.Generation(), mkTile(2, 0, 0), 0, trace.Foraging)
	if len(predicted(m)) != 1 {
		t.Error("a delivery from the current generation must land")
	}
}

func TestInsertPredictionNoAllotment(t *testing.T) {
	m := NewManager(2)
	m.SetAllocations(map[string]int{"ab": 1})
	m.InsertPrediction("unknown", 0, mkTile(1, 0, 0), 0, trace.Foraging)
	if len(predicted(m)) != 0 {
		t.Error("prediction for an unallocated model must be dropped")
	}
}
