package core

import (
	"testing"

	"forecache/internal/recommend"
	"forecache/internal/tile"
	"forecache/internal/trace"
)

// Failure-injection tests: the middleware must degrade gracefully when
// pieces misbehave, not crash the session.

// flakyModel returns rankings that include coordinates outside the
// pyramid; the prefetcher must skip them without failing the request.
type flakyModel struct{}

func (flakyModel) Name() string          { return "flaky" }
func (flakyModel) Observe(trace.Request) {}
func (flakyModel) Reset()                {}
func (flakyModel) Predict(req trace.Request, cands []recommend.Candidate, h *trace.History) []recommend.Ranked {
	out := []recommend.Ranked{
		{Coord: tile.Coord{Level: 99, Y: 0, X: 0}, Score: 10}, // bogus
	}
	for _, c := range cands {
		out = append(out, recommend.Ranked{Coord: c.Coord, Score: 1})
	}
	return out
}

func TestEngineSurvivesBogusPredictions(t *testing.T) {
	db := testDBMS(t)
	eng, err := NewEngine(db, nil, SinglePolicy{Model: "flaky"},
		[]recommend.Model{flakyModel{}}, Config{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := eng.Request(tile.Coord{})
	if err != nil {
		t.Fatalf("request with flaky model: %v", err)
	}
	for _, c := range resp.Prefetched {
		if c.Level == 99 {
			t.Error("bogus coordinate should not be prefetched")
		}
	}
	// Real candidates from the model's tail must still be fetched.
	if len(resp.Prefetched) == 0 {
		t.Error("valid predictions should survive the bogus one")
	}
}

// emptyModel never predicts anything.
type emptyModel struct{}

func (emptyModel) Name() string          { return "empty" }
func (emptyModel) Observe(trace.Request) {}
func (emptyModel) Reset()                {}
func (emptyModel) Predict(trace.Request, []recommend.Candidate, *trace.History) []recommend.Ranked {
	return nil
}

func TestEngineSurvivesEmptyPredictions(t *testing.T) {
	db := testDBMS(t)
	eng, err := NewEngine(db, nil, SinglePolicy{Model: "empty"},
		[]recommend.Model{emptyModel{}}, Config{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Request(tile.Coord{}); err != nil {
		t.Fatalf("request with empty model: %v", err)
	}
	// Everything misses, but the session keeps working.
	if _, err := eng.Request(tile.Coord{Level: 1, Y: 0, X: 0}); err != nil {
		t.Fatal(err)
	}
	st := eng.CacheStats()
	if st.Hits != 0 || st.Misses != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestEngineZeroPrefetchBudget(t *testing.T) {
	db := testDBMS(t)
	m := recommend.NewMomentum()
	// K is forced to at least the default by withDefaults, so emulate a
	// starved budget with a policy that allocates nothing.
	eng, err := NewEngine(db, nil, starvedPolicy{}, []recommend.Model{m}, Config{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := eng.Request(tile.Coord{})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Prefetched) != 0 {
		t.Errorf("starved policy should prefetch nothing, got %v", resp.Prefetched)
	}
}

type starvedPolicy struct{}

func (starvedPolicy) Models() []string                                 { return nil }
func (starvedPolicy) Allocations(ph trace.Phase, k int) map[string]int { return nil }
