package core

import (
	"slices"
	"testing"

	"forecache/internal/prefetch"
	"forecache/internal/recommend"
	"forecache/internal/tile"
	"forecache/internal/trace"
)

// Failure-injection tests: the middleware must degrade gracefully when
// pieces misbehave, not crash the session.

// flakyModel returns rankings that include coordinates outside the
// pyramid; the prefetcher must skip them without failing the request.
type flakyModel struct{}

func (flakyModel) Name() string { return "flaky" }
func (flakyModel) Predict(req trace.Request, cands []recommend.Candidate, h *trace.History) []recommend.Ranked {
	out := []recommend.Ranked{
		{Coord: tile.Coord{Level: 99, Y: 0, X: 0}, Score: 10}, // bogus
	}
	for _, c := range cands {
		out = append(out, recommend.Ranked{Coord: c.Coord, Score: 1})
	}
	return out
}

// recordingSubmitter records every coordinate submitted and fetches
// nothing.
type recordingSubmitter struct {
	nopSubmitter
	submitted []tile.Coord
}

func (r *recordingSubmitter) Submit(_ string, reqs []prefetch.Request) int {
	for _, q := range reqs {
		r.submitted = append(r.submitted, q.Coord)
	}
	return len(reqs)
}

// TestEngineSurvivesBogusPredictions: a ranked coordinate outside the
// pyramid is never submitted — neither fetched by the inline submitter nor
// handed to a scheduler — and never listed in Prefetched, while the valid
// predictions behind it still are.
func TestEngineSurvivesBogusPredictions(t *testing.T) {
	bogus := tile.Coord{Level: 99}
	for _, sched := range []*recordingSubmitter{nil, {}} {
		name := "inline"
		cfg := Config{K: 3}
		if sched != nil {
			name, cfg.Scheduler, cfg.Session = "scheduler", sched, "s"
		}
		t.Run(name, func(t *testing.T) {
			store := &countingStore{DBMS: testDBMS(t), quiet: map[tile.Coord]int{}}
			eng, err := NewEngine(store, nil, SinglePolicy{Model: "flaky"}, []recommend.Model{flakyModel{}}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := eng.Request(tile.Coord{})
			if err != nil {
				t.Fatalf("request with flaky model: %v", err)
			}
			if slices.Contains(resp.Prefetched, bogus) {
				t.Errorf("Prefetched = %v lists the bogus coordinate", resp.Prefetched)
			}
			if store.quiet[bogus] != 0 {
				t.Error("the bogus coordinate was fetched")
			}
			if sched != nil && slices.Contains(sched.submitted, bogus) {
				t.Errorf("submitted %v, which lists the bogus coordinate", sched.submitted)
			}
			// Real candidates from the model's tail must still be submitted.
			if len(resp.Prefetched) == 0 {
				t.Error("valid predictions should survive the bogus one")
			}
		})
	}
}

// emptyModel never predicts anything.
type emptyModel struct{}

func (emptyModel) Name() string { return "empty" }
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
