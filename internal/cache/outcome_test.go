package cache

import (
	"fmt"
	"testing"

	"forecache/internal/tile"
	"forecache/internal/trace"
)

// drain is a test helper asserting the exact outcome set (order-sensitive).
func drain(t *testing.T, m *Manager, want []Outcome) {
	t.Helper()
	got := m.TakeOutcomes()
	if len(got) != len(want) {
		t.Fatalf("outcomes = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("outcome[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestOutcomeHitAttribution(t *testing.T) {
	m := NewManager(4)
	m.TrackOutcomes(true)
	m.SetAllocations(map[string]int{"ab": 3})
	tiles := []*tile.Tile{mkTile(2, 0, 0), mkTile(2, 0, 1), mkTile(2, 1, 0)}
	m.FillPredictions("ab", tiles, trace.Foraging)

	// Consuming the rank-1 prediction credits position 1, exactly once.
	if _, ok := m.Lookup(tiles[1].Coord); !ok {
		t.Fatal("prefetched tile should hit")
	}
	if _, ok := m.Lookup(tiles[1].Coord); !ok {
		t.Fatal("second lookup should still hit")
	}
	drain(t, m, []Outcome{{Model: "ab", Position: 1, Phase: trace.Foraging, Coord: tiles[1].Coord, Hit: true}})

	// An overall miss emits no position outcome: nothing predicted it.
	if _, ok := m.Lookup(tile.Coord{Level: 5}); ok {
		t.Fatal("absent tile should miss")
	}
	drain(t, m, nil)
}

// TestOutcomeCreditsEveryAgreeingModel: when several models predicted the
// consumed tile, each one's prediction was correct — all get hit outcomes,
// and none is later judged a miss at eviction.
func TestOutcomeCreditsEveryAgreeingModel(t *testing.T) {
	m := NewManager(4)
	m.TrackOutcomes(true)
	m.SetAllocations(map[string]int{"ab": 2, "sb": 2})
	shared := mkTile(2, 0, 0)
	m.FillPredictions("ab", []*tile.Tile{shared, mkTile(2, 0, 1)}, trace.Foraging)
	m.FillPredictions("sb", []*tile.Tile{mkTile(2, 1, 0), shared}, trace.Foraging)
	if _, ok := m.Lookup(shared.Coord); !ok {
		t.Fatal("shared prediction should hit")
	}
	got := m.TakeOutcomes()
	credited := map[string]int{}
	for _, o := range got {
		if !o.Hit {
			t.Fatalf("unexpected miss outcome %+v", o)
		}
		credited[o.Model] = o.Position
	}
	if len(got) != 2 || credited["ab"] != 0 || credited["sb"] != 1 {
		t.Fatalf("outcomes = %+v, want ab@0 and sb@1 hits", got)
	}
	// Dropping both regions now judges only the never-consumed tiles.
	m.SetAllocations(map[string]int{})
	for _, o := range m.TakeOutcomes() {
		if o.Hit || (o.Position == 0 && o.Model == "ab") || (o.Position == 1 && o.Model == "sb") {
			t.Fatalf("consumed shared tile was re-judged: %+v", o)
		}
	}
}

func TestOutcomeMissOnReplacement(t *testing.T) {
	m := NewManager(4)
	m.TrackOutcomes(true)
	m.SetAllocations(map[string]int{"ab": 2})
	a, b := mkTile(2, 0, 0), mkTile(2, 0, 1)
	m.FillPredictions("ab", []*tile.Tile{a, b}, trace.Foraging)
	if _, ok := m.Lookup(a.Coord); !ok {
		t.Fatal("a should hit")
	}
	// The next batch re-predicts nothing: a was consumed (hit already
	// recorded), b was not (miss at its position 1).
	c, d := mkTile(2, 1, 0), mkTile(2, 1, 1)
	m.FillPredictions("ab", []*tile.Tile{c, d}, trace.Foraging)
	drain(t, m, []Outcome{
		{Model: "ab", Position: 0, Phase: trace.Foraging, Coord: a.Coord, Hit: true},
		{Model: "ab", Position: 1, Phase: trace.Foraging, Coord: b.Coord, Hit: false},
	})
}

func TestOutcomeRefreshIsNotJudged(t *testing.T) {
	m := NewManager(4)
	m.TrackOutcomes(true)
	m.SetAllocations(map[string]int{"ab": 2})
	a, b := mkTile(2, 0, 0), mkTile(2, 0, 1)
	m.FillPredictions("ab", []*tile.Tile{a, b}, trace.Foraging)
	// b is re-predicted (now at rank 0): no outcome for the old instance;
	// a leaves unconsumed: miss at position 0.
	m.FillPredictions("ab", []*tile.Tile{b, mkTile(2, 1, 1)}, trace.Foraging)
	drain(t, m, []Outcome{{Model: "ab", Position: 0, Phase: trace.Foraging, Coord: a.Coord, Hit: false}})
	// Consuming b now credits its refreshed position 0.
	if _, ok := m.Lookup(b.Coord); !ok {
		t.Fatal("refreshed tile should hit")
	}
	drain(t, m, []Outcome{{Model: "ab", Position: 0, Phase: trace.Foraging, Coord: b.Coord, Hit: true}})
}

func TestOutcomeAsyncRingEviction(t *testing.T) {
	m := NewManager(4)
	m.TrackOutcomes(true)
	m.SetAllocations(map[string]int{"ab": 2})
	a, b, c := mkTile(2, 0, 0), mkTile(2, 0, 1), mkTile(2, 1, 0)
	m.InsertPrediction("ab", 0, a, 0, trace.Foraging)
	m.InsertPrediction("ab", 0, b, 1, trace.Foraging)
	m.InsertPrediction("ab", 0, c, 2, trace.Foraging) // rings a out, unconsumed: miss at pos 0
	drain(t, m, []Outcome{{Model: "ab", Position: 0, Phase: trace.Foraging, Coord: a.Coord, Hit: false}})
	if _, ok := m.Lookup(c.Coord); !ok {
		t.Fatal("newest prediction should hit")
	}
	drain(t, m, []Outcome{{Model: "ab", Position: 2, Phase: trace.Foraging, Coord: c.Coord, Hit: true}})
}

func TestOutcomeAllocationLossJudged(t *testing.T) {
	m := NewManager(4)
	m.TrackOutcomes(true)
	m.SetAllocations(map[string]int{"ab": 2, "sb": 1})
	m.FillPredictions("ab", []*tile.Tile{mkTile(2, 0, 0), mkTile(2, 0, 1)}, trace.Foraging)
	m.FillPredictions("sb", []*tile.Tile{mkTile(2, 1, 0)}, trace.Foraging)
	// ab shrinks to 1 slot (rank-1 entry trimmed: miss at 1); sb loses its
	// region entirely (miss at 0).
	m.SetAllocations(map[string]int{"ab": 1})
	got := m.TakeOutcomes()
	misses := map[string]int{}
	for _, o := range got {
		if o.Hit {
			t.Fatalf("unexpected hit outcome %+v", o)
		}
		misses[fmt.Sprintf("%s@%d", o.Model, o.Position)]++
	}
	if misses["ab@1"] != 1 || misses["sb@0"] != 1 || len(got) != 2 {
		t.Fatalf("outcomes = %+v, want ab@1 and sb@0 misses", got)
	}
}

func TestOutcomeClearNotJudged(t *testing.T) {
	m := NewManager(4)
	m.TrackOutcomes(true)
	m.SetAllocations(map[string]int{"ab": 2})
	m.FillPredictions("ab", []*tile.Tile{mkTile(2, 0, 0)}, trace.Foraging)
	m.Clear()
	if got := m.TakeOutcomes(); len(got) != 0 {
		t.Fatalf("Clear must not judge predictions, got %+v", got)
	}
	if m.Len() != 0 {
		t.Fatal("Clear should empty the cache")
	}
}

// TestOutcomePhaseAttribution: an outcome carries the phase in effect when
// the tile was PREFETCHED, not when it was judged — and a refresh re-stamps
// the entry with the refreshing batch's phase.
func TestOutcomePhaseAttribution(t *testing.T) {
	m := NewManager(4)
	m.TrackOutcomes(true)
	m.SetAllocations(map[string]int{"ab": 2})
	a, b := mkTile(2, 0, 0), mkTile(2, 0, 1)
	m.FillPredictions("ab", []*tile.Tile{a, b}, trace.Sensemaking)
	// a consumed: hit attributed to Sensemaking even if the user's phase
	// changed since.
	if _, ok := m.Lookup(a.Coord); !ok {
		t.Fatal("a should hit")
	}
	// b refreshed under Navigation, then rung out by later inserts:
	// the miss is attributed to the refreshing batch's phase.
	m.FillPredictions("ab", []*tile.Tile{b}, trace.Navigation)
	m.InsertPrediction("ab", 0, mkTile(2, 1, 0), 0, trace.Foraging)
	m.InsertPrediction("ab", 0, mkTile(2, 1, 1), 1, trace.Foraging)
	drain(t, m, []Outcome{
		{Model: "ab", Position: 0, Phase: trace.Sensemaking, Coord: a.Coord, Hit: true},
		{Model: "ab", Position: 0, Phase: trace.Navigation, Coord: b.Coord, Hit: false},
	})
}

func TestOutcomeTrackingOffByDefault(t *testing.T) {
	m := NewManager(4)
	m.SetAllocations(map[string]int{"ab": 1})
	m.FillPredictions("ab", []*tile.Tile{mkTile(2, 0, 0)}, trace.Foraging)
	m.Lookup(tile.Coord{Level: 2})
	m.FillPredictions("ab", []*tile.Tile{mkTile(2, 1, 1)}, trace.Foraging)
	if got := m.TakeOutcomes(); got != nil {
		t.Fatalf("outcomes accumulated while disabled: %+v", got)
	}
}

func TestOutcomeBufferBounded(t *testing.T) {
	m := NewManager(4)
	m.TrackOutcomes(true)
	m.SetAllocations(map[string]int{"ab": 1})
	for i := 0; i < outcomeBufferCap+100; i++ {
		m.InsertPrediction("ab", 0, mkTile(8, i/512, i%512), 0, trace.Foraging)
	}
	if got := len(m.TakeOutcomes()); got > outcomeBufferCap {
		t.Fatalf("outcome buffer grew to %d, cap is %d", got, outcomeBufferCap)
	}
}

// TestIndexConsistentAfterChurn cross-checks the coordinate index against a
// full region scan after a mixed workload.
func TestIndexConsistentAfterChurn(t *testing.T) {
	m := NewManager(4)
	m.SetAllocations(map[string]int{"ab": 3, "sb": 2})
	for i := 0; i < 50; i++ {
		switch i % 5 {
		case 0:
			m.FillPredictions("ab", []*tile.Tile{mkTile(3, i%8, 0), mkTile(3, i%8, 1)}, trace.Foraging)
		case 1:
			m.InsertPrediction("sb", 0, mkTile(3, i%8, 2), i%3, trace.Foraging)
		case 2:
			m.Lookup(tile.Coord{Level: 3, Y: i % 8, X: 1})
		case 3:
			m.SetAllocations(map[string]int{"ab": 1 + i%3, "sb": 2})
		case 4:
			m.InsertRecent(mkTile(4, i, i))
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	inRegions := map[tile.Coord]int{}
	for model, region := range m.regions {
		for _, pt := range region {
			inRegions[pt.t.Coord]++
			found := false
			if e := m.byCoord[pt.t.Coord]; e != nil {
				for _, ref := range e.refs {
					if ref.model == model && ref.pt == pt {
						found = true
					}
				}
			}
			if !found {
				t.Errorf("index missing region entry %v/%s", pt.t.Coord, model)
			}
		}
	}
	indexed, recents := 0, 0
	for c, e := range m.byCoord {
		indexed += len(e.refs)
		if e.recent != nil {
			recents++
		}
		if len(e.refs) == 0 && e.recent == nil {
			t.Errorf("index holds empty entry for %v", c)
		}
		if len(e.refs) > 0 && inRegions[c] == 0 {
			t.Errorf("index holds %v which no region holds", c)
		}
	}
	total := 0
	for _, n := range inRegions {
		total += n
	}
	if indexed != total {
		t.Errorf("index holds %d region refs, regions hold %d", indexed, total)
	}
	if recents != m.recent.Len() {
		t.Errorf("index holds %d recent refs, LRU holds %d", recents, m.recent.Len())
	}
}

// benchManagerN builds the lookup benchmarks' reference shape: n model
// regions of 8 tiles each (K=8), with production-sized tiles (16x16 float64
// grids, ~2KB) scattered across the heap the way a long-running server's
// tiles are.
func benchManagerN(n int) (*Manager, []tile.Coord) {
	m := NewManager(8)
	allocs := map[string]int{}
	var coords []tile.Coord
	var ballast [][]float64
	for r := 0; r < n; r++ {
		allocs[fmt.Sprintf("model%d", r)] = 8
	}
	m.SetAllocations(allocs)
	for r := 0; r < n; r++ {
		var tiles []*tile.Tile
		for i := 0; i < 8; i++ {
			tl := &tile.Tile{
				Coord: tile.Coord{Level: 5, Y: r, X: i},
				Size:  16, Attrs: []string{"v"},
				Data: [][]float64{make([]float64, 16*16)},
			}
			ballast = append(ballast, make([]float64, 4096))
			tiles = append(tiles, tl)
			coords = append(coords, tl.Coord)
		}
		m.FillPredictions(fmt.Sprintf("model%d", r), tiles, trace.Foraging)
	}
	_ = ballast
	return m, coords
}

func benchManager() (*Manager, []tile.Coord) { return benchManagerN(8) }

// BenchmarkLookupIndexed8Regions and its miss twin measure the coordinate
// index's hot path at K=8 regions (the linear scan it replaced was ~3x
// slower at 16 regions; CHANGES.md PR 3 has the numbers).
func BenchmarkLookupIndexed8Regions(b *testing.B) {
	m, coords := benchManager()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Lookup(coords[i%len(coords)])
	}
}

func BenchmarkLookupMissIndexed8Regions(b *testing.B) {
	m, _ := benchManager()
	miss := tile.Coord{Level: 9, Y: 9, X: 9}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Lookup(miss)
	}
}

// 16 regions shows the asymptotic point: the index stays flat with every
// model a deployment adds.
func BenchmarkLookupMissIndexed16Regions(b *testing.B) {
	m, _ := benchManagerN(16)
	miss := tile.Coord{Level: 9, Y: 99, X: 99}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Lookup(miss)
	}
}

// The parallel run measures what a loaded server pays: the manager's mutex
// is shared by the request path and the scheduler's async deliveries, so
// lock hold time — not per-call latency — bounds throughput.
func BenchmarkLookupParallelIndexed8Regions(b *testing.B) {
	m, coords := benchManager()
	miss := tile.Coord{Level: 9, Y: 9, X: 9}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if i%2 == 0 {
				m.Lookup(coords[i%len(coords)])
			} else {
				m.Lookup(miss)
			}
			i++
		}
	})
}

// TestPredictionsIsObservational: Predictions (the push backfill source)
// returns the live region entries in deterministic order and touches
// nothing — no consumption marks, no outcomes, no stats — so replaying a
// session's cache down a reconnected stream can never double-count a
// prediction's fate.
func TestPredictionsIsObservational(t *testing.T) {
	m := NewManager(8)
	m.TrackOutcomes(true)
	m.SetAllocations(map[string]int{"ab": 2, "sb": 2})
	m.FillPredictions("ab", []*tile.Tile{mkTile(2, 0, 0), mkTile(2, 0, 1)}, trace.Foraging)
	m.FillPredictions("sb", []*tile.Tile{mkTile(2, 1, 0)}, trace.Foraging)

	before := m.Stats()
	first := m.Predictions()
	second := m.Predictions()
	if len(first) != 3 {
		t.Fatalf("predictions = %d entries, want 3", len(first))
	}
	// Deterministic order: model names sorted, region order within.
	for i := range first {
		if first[i].Model != second[i].Model || first[i].Tile.Coord != second[i].Tile.Coord {
			t.Fatalf("snapshot order unstable: %+v vs %+v", first[i], second[i])
		}
		if i > 0 && first[i].Model < first[i-1].Model {
			t.Fatalf("models out of order: %q before %q", first[i-1].Model, first[i].Model)
		}
	}
	if after := m.Stats(); after != before {
		t.Fatalf("Predictions moved stats: before=%+v after=%+v", before, after)
	}
	drain(t, m, nil) // no outcomes emitted

	// The snapshot did not mark anything consumed: a later real lookup
	// still credits the hit, and eviction of unconsumed entries still
	// emits its miss outcome.
	c := tile.Coord{Level: 2, Y: 0, X: 1}
	if _, ok := m.Lookup(c); !ok {
		t.Fatal("snapshotted prediction should still hit")
	}
	drain(t, m, []Outcome{{Model: "ab", Position: 1, Phase: trace.Foraging, Coord: c, Hit: true}})
}
