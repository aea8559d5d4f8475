package core

import (
	"testing"
	"time"

	"forecache/internal/backend"
	"forecache/internal/phase"
	"forecache/internal/recommend"
	"forecache/internal/tile"
	"forecache/internal/trace"
)

func TestSinglePolicy(t *testing.T) {
	p := SinglePolicy{Model: "momentum"}
	if a := p.Allocations(trace.Sensemaking, 7); a["momentum"] != 7 {
		t.Errorf("single = %v", a)
	}
	if got := p.Models(); len(got) != 1 || got[0] != "momentum" {
		t.Errorf("Models = %q", got)
	}
}

func testDBMS(t testing.TB) *backend.DBMS {
	t.Helper()
	data := make([]float64, 64*64)
	for i := range data {
		data[i] = float64(i % 13)
	}
	pyr, err := tile.Build(&tile.Grid{Rows: 64, Cols: 64, Attrs: []string{"v"}, Data: [][]float64{data}}, 8)
	if err != nil {
		t.Fatal(err)
	}
	return backend.NewDBMS(pyr, backend.DefaultLatency(), &backend.SimClock{})
}

func zoomTraces(n int) []*trace.Trace {
	var out []*trace.Trace
	for i := 0; i < n; i++ {
		tr := &trace.Trace{User: i, Task: 1}
		c := tile.Coord{}
		tr.Requests = append(tr.Requests, trace.Request{Coord: c, Move: trace.None})
		for j := 0; j < 3; j++ {
			c = trace.Apply(c, trace.ZoomInNW)
			tr.Requests = append(tr.Requests, trace.Request{Coord: c, Move: trace.ZoomInNW})
		}
		out = append(out, tr)
	}
	return out
}

func testEngine(t testing.TB, k int) *Engine {
	t.Helper()
	db := testDBMS(t)
	ab, err := recommend.NewAB(3, zoomTraces(4))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(db, nil, SinglePolicy{Model: ab.Name()},
		[]recommend.Model{ab}, Config{K: k})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestNewEngineValidation(t *testing.T) {
	db := testDBMS(t)
	if _, err := NewEngine(nil, nil, SinglePolicy{Model: "x"}, nil, Config{}); err == nil {
		t.Error("nil DBMS should fail")
	}
	if _, err := NewEngine(db, nil, nil, nil, Config{}); err == nil {
		t.Error("nil policy should fail")
	}
	if _, err := NewEngine(db, nil, SinglePolicy{Model: "ghost"}, nil, Config{}); err == nil {
		t.Error("policy referencing an absent model should fail")
	}
}

func TestFirstRequestIsMiss(t *testing.T) {
	eng := testEngine(t, 4)
	resp, err := eng.Request(tile.Coord{})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Hit {
		t.Error("first request cannot hit an empty cache")
	}
	if resp.Latency != backend.DefaultLatency().Miss {
		t.Errorf("miss latency = %v", resp.Latency)
	}
	if resp.Tile == nil || resp.Tile.Coord != (tile.Coord{}) {
		t.Errorf("served tile = %+v", resp.Tile)
	}
}

func TestPrefetchedTileHits(t *testing.T) {
	eng := testEngine(t, 4)
	resp, err := eng.Request(tile.Coord{})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Prefetched) == 0 {
		t.Fatal("engine should prefetch after the first request")
	}
	// The AB model was trained on repeated in-nw chains, so the NW child
	// must be among the prefetched tiles; requesting it must hit.
	nw := tile.Coord{Level: 1, Y: 0, X: 0}
	found := false
	for _, c := range resp.Prefetched {
		if c == nw {
			found = true
		}
	}
	if !found {
		t.Fatalf("prefetched %v does not include %v", resp.Prefetched, nw)
	}
	resp2, err := eng.Request(nw)
	if err != nil {
		t.Fatal(err)
	}
	if !resp2.Hit {
		t.Error("prefetched tile should be a cache hit")
	}
	if resp2.Latency != backend.DefaultLatency().Hit {
		t.Errorf("hit latency = %v", resp2.Latency)
	}
	st := eng.CacheStats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestRecentLRUServesRevisits(t *testing.T) {
	eng := testEngine(t, 1)
	if _, err := eng.Request(tile.Coord{}); err != nil {
		t.Fatal(err)
	}
	// Zoom into SE (unpredicted by the NW-trained model is fine) and back.
	se := tile.Coord{Level: 1, Y: 1, X: 1}
	if _, err := eng.Request(se); err != nil {
		t.Fatal(err)
	}
	resp, err := eng.Request(tile.Coord{}) // zoom out: root is in the LRU
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Hit {
		t.Error("revisited tile should be served from the recent-request LRU")
	}
}

func TestJumpRejected(t *testing.T) {
	eng := testEngine(t, 2)
	if _, err := eng.Request(tile.Coord{}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Request(tile.Coord{Level: 3, Y: 5, X: 5}); err == nil {
		t.Error("non-incremental request must be rejected (no jumping)")
	}
}

func TestRequestOutsidePyramid(t *testing.T) {
	eng := testEngine(t, 2)
	if _, err := eng.Request(tile.Coord{Level: -1}); err == nil {
		t.Error("request outside the pyramid should fail")
	}
}

func TestResetStartsFreshSession(t *testing.T) {
	eng := testEngine(t, 4)
	if _, err := eng.Request(tile.Coord{}); err != nil {
		t.Fatal(err)
	}
	eng.Reset()
	st := eng.CacheStats()
	if st.Hits != 0 || st.Misses != 0 {
		t.Errorf("stats after reset = %+v", st)
	}
	// After reset the session restarts from any tile without move checks.
	resp, err := eng.Request(tile.Coord{Level: 1, Y: 0, X: 0})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Hit {
		t.Error("cache should be cold after reset")
	}
}

func TestEngineWithClassifierAndHybrid(t *testing.T) {
	db := testDBMS(t)
	levels := db.Pyramid().NumLevels()

	// Train a tiny classifier on rule-labeled synthetic requests: the
	// root is Foraging, pans at the deepest level Sensemaking, the rest
	// Navigation.
	var reqs []trace.Request
	for l := 0; l < levels; l++ {
		for _, mv := range trace.AllMoves() {
			r := trace.Request{Coord: tile.Coord{Level: l, Y: 0, X: 0}, Move: mv, Phase: trace.Navigation}
			switch {
			case l == 0:
				r.Phase = trace.Foraging
			case l == levels-1 && mv.IsPan():
				r.Phase = trace.Sensemaking
			}
			reqs = append(reqs, r)
		}
	}
	cls, err := phase.Train(reqs, phase.TrainConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ab, err := recommend.NewAB(3, zoomTraces(3))
	if err != nil {
		t.Fatal(err)
	}
	mom := recommend.NewMomentum()
	eng, err := NewEngine(db, cls, hybridPolicy(t, ab.Name(), mom.Name()),
		[]recommend.Model{ab, mom}, Config{K: 6})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := eng.Request(tile.Coord{})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Phase == trace.PhaseUnknown {
		t.Error("classifier-equipped engine should predict a phase")
	}
	if len(resp.Prefetched) == 0 {
		t.Error("hybrid engine should prefetch")
	}
	// Prefetched coords must be unique.
	seen := map[tile.Coord]bool{}
	for _, c := range resp.Prefetched {
		if seen[c] {
			t.Errorf("duplicate prefetched coord %v", c)
		}
		seen[c] = true
	}
}

func TestLatencyAccumulatesOnSimClock(t *testing.T) {
	db := testDBMS(t)
	ab, err := recommend.NewAB(3, zoomTraces(3))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(db, nil, SinglePolicy{Model: ab.Name()},
		[]recommend.Model{ab}, Config{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Request(tile.Coord{}); err != nil {
		t.Fatal(err)
	}
	nw := tile.Coord{Level: 1, Y: 0, X: 0}
	if _, err := eng.Request(nw); err != nil {
		t.Fatal(err)
	}
	// Exactly one miss should have charged the clock; prefetches are quiet
	// (the second request hit because the NW chain is AB's top prediction).
	if got := db.Clock().Elapsed(); got != 984*time.Millisecond {
		t.Errorf("simulated clock = %v, want exactly one miss (984ms)", got)
	}
}

func BenchmarkEngineRequest(b *testing.B) {
	eng := testEngine(b, 5)
	seq := []tile.Coord{
		{},
		{Level: 1, Y: 0, X: 0},
		{Level: 2, Y: 0, X: 0},
		{Level: 1, Y: 0, X: 0},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Reset()
		for _, c := range seq {
			if _, err := eng.Request(c); err != nil {
				b.Fatal(err)
			}
		}
	}
}
