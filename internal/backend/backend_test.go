package backend

import (
	"testing"
	"time"

	"forecache/internal/array"
	"forecache/internal/tile"
)

func buildPyramid(t *testing.T) *tile.Pyramid {
	t.Helper()
	a := array.NewZero(array.Schema{
		Name:  "RAW",
		Attrs: []string{"v"},
		Dims:  [2]array.Dim{{Name: "lat", Size: 32}, {Name: "lon", Size: 32}},
	})
	p, err := tile.Build(a, tile.Params{TileSize: 8, Agg: array.AggAvg})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestSimClockAccumulates(t *testing.T) {
	var c SimClock
	c.Sleep(time.Second)
	c.Sleep(500 * time.Millisecond)
	if got := c.Elapsed(); got != 1500*time.Millisecond {
		t.Errorf("Elapsed = %v", got)
	}
}

func TestDefaultLatencyMatchesPaper(t *testing.T) {
	l := DefaultLatency()
	if l.Hit != 19500*time.Microsecond {
		t.Errorf("Hit = %v, want 19.5ms", l.Hit)
	}
	if l.Miss != 984*time.Millisecond {
		t.Errorf("Miss = %v, want 984ms", l.Miss)
	}
}

func TestFetchChargesMissLatency(t *testing.T) {
	pyr := buildPyramid(t)
	clock := &SimClock{}
	db := NewDBMS(pyr, DefaultLatency(), clock)
	if _, err := db.Fetch(tile.Coord{Level: 0, Y: 0, X: 0}); err != nil {
		t.Fatalf("Fetch: %v", err)
	}
	if got := clock.Elapsed(); got != 984*time.Millisecond {
		t.Errorf("elapsed = %v, want 984ms", got)
	}
	if db.Queries() != 1 {
		t.Errorf("Queries = %d", db.Queries())
	}
}

func TestFetchQuietSkipsLatency(t *testing.T) {
	pyr := buildPyramid(t)
	clock := &SimClock{}
	db := NewDBMS(pyr, DefaultLatency(), clock)
	if _, err := db.FetchQuiet(tile.Coord{Level: 1, Y: 1, X: 1}); err != nil {
		t.Fatalf("FetchQuiet: %v", err)
	}
	if clock.Elapsed() != 0 {
		t.Errorf("prefetch charged latency: %v", clock.Elapsed())
	}
	if db.Queries() != 1 {
		t.Errorf("Queries = %d", db.Queries())
	}
}

func TestFetchUnknownTile(t *testing.T) {
	pyr := buildPyramid(t)
	db := NewDBMS(pyr, DefaultLatency(), nil)
	if _, err := db.Fetch(tile.Coord{Level: 9, Y: 0, X: 0}); err == nil {
		t.Error("fetch outside the pyramid should fail")
	}
	if db.Queries() != 0 {
		t.Error("failed fetch should not count as a query")
	}
}

func TestNilClockIsSafe(t *testing.T) {
	pyr := buildPyramid(t)
	db := NewDBMS(pyr, DefaultLatency(), nil)
	if _, err := db.Fetch(tile.Coord{Level: 0, Y: 0, X: 0}); err != nil {
		t.Fatalf("Fetch with nil clock: %v", err)
	}
	if db.Pyramid() != pyr {
		t.Error("Pyramid accessor broken")
	}
	if db.Latency() != DefaultLatency() {
		t.Error("Latency accessor broken")
	}
}
