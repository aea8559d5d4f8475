package core

import (
	"maps"
	"slices"
	"sort"
	"testing"

	"forecache/internal/backend"
	"forecache/internal/prefetch"
	"forecache/internal/recommend"
	"forecache/internal/tile"
	"forecache/internal/trace"
)

// countingStore counts the quiet (prefetch) fetches per coordinate.
type countingStore struct {
	*backend.DBMS
	quiet map[tile.Coord]int
}

func (s *countingStore) FetchQuiet(c tile.Coord) (*tile.Tile, error) {
	s.quiet[c]++
	return s.DBMS.FetchQuiet(c)
}

// fixedModel ranks the same coordinates, best first, whatever the request.
type fixedModel struct {
	name   string
	coords []tile.Coord
}

func (m fixedModel) Name() string { return m.name }
func (m fixedModel) Predict(trace.Request, []recommend.Candidate, *trace.History) []recommend.Ranked {
	out := make([]recommend.Ranked, len(m.coords))
	for i, c := range m.coords {
		out[i] = recommend.Ranked{Coord: c, Score: float64(len(m.coords) - i)}
	}
	return out
}

// fixedPolicy allots the same slots per model in every phase.
type fixedPolicy map[string]int

func (p fixedPolicy) Allocations(trace.Phase, int) map[string]int { return maps.Clone(p) }
func (p fixedPolicy) Models() []string                            { return slices.Sorted(maps.Keys(p)) }

// TestRequestFetchesEachPredictedTileOnce: two models that agree on a tile
// cost one DBMS fetch for it, both still hold it in their regions, and
// Response.Prefetched lists the distinct tiles in coordinate order.
func TestRequestFetchesEachPredictedTileOnce(t *testing.T) {
	nw, ne, se := tile.Coord{Level: 1}, tile.Coord{Level: 1, X: 1}, tile.Coord{Level: 1, Y: 1, X: 1}
	store := &countingStore{DBMS: testDBMS(t), quiet: map[tile.Coord]int{}}
	models := []recommend.Model{
		fixedModel{name: "a", coords: []tile.Coord{se, nw}},
		fixedModel{name: "b", coords: []tile.Coord{nw, ne}},
	}
	eng, err := NewEngine(store, nil, fixedPolicy{"a": 2, "b": 2}, models, Config{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := eng.Request(tile.Coord{})
	if err != nil {
		t.Fatal(err)
	}
	want := map[tile.Coord]int{nw: 1, ne: 1, se: 1}
	if !maps.Equal(store.quiet, want) {
		t.Errorf("quiet fetches = %v, want one per distinct predicted tile %v", store.quiet, want)
	}
	if !slices.Equal(resp.Prefetched, []tile.Coord{nw, ne, se}) {
		t.Errorf("Prefetched = %v, want %v", resp.Prefetched, []tile.Coord{nw, ne, se})
	}
	var held []string
	for _, p := range eng.CachedPredictions() {
		held = append(held, p.Model+" "+p.Tile.Coord.String())
	}
	slices.Sort(held)
	if wantHeld := []string{"a L1/0/0", "a L1/1/1", "b L1/0/0", "b L1/0/1"}; !slices.Equal(held, wantHeld) {
		t.Errorf("cached predictions = %v, want %v", held, wantHeld)
	}

	// Two fresh two-model engines walking the same coordinates prefetch
	// the same tiles in the same order at every step.
	walk := []tile.Coord{{}, nw, {Level: 2}, nw, {}}
	var first [][]tile.Coord
	for run := 0; run < 2; run++ {
		ab, err := recommend.NewAB(3, zoomTraces(4))
		if err != nil {
			t.Fatal(err)
		}
		eng, err := NewEngine(testDBMS(t), nil, fixedPolicy{ab.Name(): 3, "momentum": 2},
			[]recommend.Model{ab, recommend.NewMomentum()}, Config{K: 5})
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range walk {
			resp, err := eng.Request(c)
			if err != nil {
				t.Fatal(err)
			}
			if got := resp.Prefetched; !sort.SliceIsSorted(got, func(a, b int) bool { return got[a].Less(got[b]) }) {
				t.Errorf("step %d: Prefetched %v is not in coordinate order", i, resp.Prefetched)
			}
			if run == 0 {
				first = append(first, resp.Prefetched)
			} else if !slices.Equal(resp.Prefetched, first[i]) {
				t.Errorf("step %d: Prefetched %v, first engine %v", i, resp.Prefetched, first[i])
			}
		}
	}
}

// nopSubmitter accepts every batch and fetches nothing.
type nopSubmitter struct{}

func (nopSubmitter) Submit(reqs []prefetch.Request) int { return len(reqs) }
func (nopSubmitter) Cancel()                            {}

// requestAllocs is the mean allocation count of one zoom-in, zoom-out
// round trip after the engine's first request.
func requestAllocs(t *testing.T, eng *Engine) float64 {
	t.Helper()
	if _, err := eng.Request(tile.Coord{}); err != nil {
		t.Fatal(err)
	}
	return testing.AllocsPerRun(100, func() {
		for _, c := range []tile.Coord{{Level: 1}, {}} {
			if _, err := eng.Request(c); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// TestRequestAllocCeiling pins the request path's allocations, prefetch
// fetches and deliveries included, at the default engine's measured count.
func TestRequestAllocCeiling(t *testing.T) {
	const ceiling = 40
	if n := requestAllocs(t, testEngine(t, 5)); n > ceiling {
		t.Errorf("round trip allocates %v times, ceiling %d", n, ceiling)
	}
}

// scriptedModel ranks next, best first, whatever the request.
type scriptedModel struct{ next []tile.Coord }

func (*scriptedModel) Name() string { return "a" }
func (m *scriptedModel) Predict(trace.Request, []recommend.Candidate, *trace.History) []recommend.Ranked {
	return fixedModel{coords: m.next}.Predict(trace.Request{}, nil, nil)
}

// TestRepredictedTileAtRegionEndIsNotJudged: a batch that re-predicts the
// tile at a full region's old end refreshes it, so the batch's new tile
// rings out the other old entry, and only that one is judged a miss.
func TestRepredictedTileAtRegionEndIsNotJudged(t *testing.T) {
	x, y, w := tile.Coord{Level: 2}, tile.Coord{Level: 2, X: 1}, tile.Coord{Level: 2, Y: 1}
	m := &scriptedModel{next: []tile.Coord{x, y}}
	rec := &recordingObserver{}
	eng, err := NewEngine(testDBMS(t), nil, fixedPolicy{"a": 2}, []recommend.Model{m}, Config{K: 2, Feedback: rec})
	if err != nil {
		t.Fatal(err)
	}
	// x is delivered first, so it sits at the region's old end.
	if _, err := eng.Request(tile.Coord{}); err != nil {
		t.Fatal(err)
	}
	m.next = []tile.Coord{w, x}
	if _, err := eng.Request(tile.Coord{Level: 1}); err != nil {
		t.Fatal(err)
	}
	// y (position 1) left the cache unconsumed; x (position 0) is still
	// predicted and must not be judged.
	if len(rec.outcomes) != 1 || rec.outcomes[0].pos != 1 || rec.outcomes[0].hit {
		t.Errorf("outcomes = %+v, want one miss, for y at position 1", rec.outcomes)
	}
	if got := eng.CacheStats().Prefetched; got != 4 {
		t.Errorf("Prefetched = %d, want 4 deliveries (the refresh counts none)", got)
	}
	got := []tile.Coord{}
	for _, p := range eng.CachedPredictions() {
		got = append(got, p.Tile.Coord)
	}
	if !slices.Equal(got, []tile.Coord{x, w}) {
		t.Errorf("region = %v, want [x w]", got)
	}
}
