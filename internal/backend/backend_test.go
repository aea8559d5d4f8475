package backend

import (
	"testing"
	"time"

	"forecache/internal/tile"
)

func buildPyramid(t *testing.T) *tile.Pyramid {
	t.Helper()
	p, err := tile.Build(&tile.Grid{Rows: 32, Cols: 32, Attrs: []string{"v"}, Data: [][]float64{make([]float64, 32*32)}}, 8)
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
}

func TestFetchQuietSkipsLatency(t *testing.T) {
	pyr := buildPyramid(t)
	clock := &SimClock{}
	db := NewDBMS(pyr, DefaultLatency(), clock)
	c := tile.Coord{Level: 1, Y: 1, X: 1}
	tl, err := db.FetchQuiet(c)
	if err != nil {
		t.Fatalf("FetchQuiet: %v", err)
	}
	if tl.Coord != c {
		t.Errorf("FetchQuiet(%v) returned tile %v", c, tl.Coord)
	}
	if clock.Elapsed() != 0 {
		t.Errorf("prefetch charged latency: %v", clock.Elapsed())
	}
}

func TestFetchUnknownTile(t *testing.T) {
	pyr := buildPyramid(t)
	clock := &SimClock{}
	db := NewDBMS(pyr, DefaultLatency(), clock)
	if _, err := db.Fetch(tile.Coord{Level: 9, Y: 0, X: 0}); err == nil {
		t.Error("fetch outside the pyramid should fail")
	}
	if clock.Elapsed() != 0 {
		t.Errorf("failed fetch charged latency: %v", clock.Elapsed())
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
