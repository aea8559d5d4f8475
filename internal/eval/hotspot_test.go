package eval

import (
	"testing"

	"forecache/internal/recommend"
	"forecache/internal/tile"
	"forecache/internal/trace"
)

// gridBounds is a fake pyramid geometry: levels 0..maxLevel, 2^l tiles per
// side.
type gridBounds struct{ maxLevel int }

func (g gridBounds) Contains(c tile.Coord) bool {
	if c.Level < 0 || c.Level > g.maxLevel {
		return false
	}
	side := 1 << c.Level
	return c.Y >= 0 && c.Y < side && c.X >= 0 && c.X < side
}

func TestHotspotTraining(t *testing.T) {
	hot := tile.Coord{Level: 2, Y: 2, X: 2}
	var traces []*trace.Trace
	for i := 0; i < 5; i++ {
		traces = append(traces, &trace.Trace{Requests: []trace.Request{
			{Coord: hot, Move: trace.PanRight},
			{Coord: tile.Coord{Level: 2, Y: 0, X: i % 3}, Move: trace.PanLeft},
		}})
	}
	m := newTraceHotspot(traces, 1, 3)
	if hs := m.hotspots; len(hs) != 1 || hs[0] != hot {
		t.Fatalf("hotspots = %v, want [%v]", hs, hot)
	}
}

func TestHotspotAttractsNearby(t *testing.T) {
	hot := tile.Coord{Level: 3, Y: 4, X: 6}
	traces := []*trace.Trace{{Requests: []trace.Request{
		{Coord: hot}, {Coord: hot}, {Coord: hot},
	}}}
	m := newTraceHotspot(traces, 1, 3)
	// User two tiles left of the hotspot, just moved up (momentum says up).
	cur := tile.Coord{Level: 3, Y: 4, X: 4}
	req := trace.Request{Coord: cur, Move: trace.PanUp}
	ranked := m.Predict(req, recommend.Candidates(gridBounds{maxLevel: 5}, cur, 1), trace.NewHistory(3))
	if want := cur.Pan(0, 1); ranked[0].Coord != want {
		t.Errorf("hotspot should attract: top = %v, want %v (toward hotspot)", ranked[0].Coord, want)
	}
}

func TestHotspotFallsBackToMomentumWhenFar(t *testing.T) {
	hot := tile.Coord{Level: 4, Y: 15, X: 15}
	traces := []*trace.Trace{{Requests: []trace.Request{{Coord: hot}, {Coord: hot}}}}
	m := newTraceHotspot(traces, 1, 2)
	cur := tile.Coord{Level: 4, Y: 1, X: 1}
	req := trace.Request{Coord: cur, Move: trace.PanDown}
	cands := recommend.Candidates(gridBounds{maxLevel: 5}, cur, 1)
	rankedHot := m.Predict(req, cands, trace.NewHistory(3))
	rankedMom := recommend.NewMomentum().Predict(req, cands, trace.NewHistory(3))
	if rankedHot[0].Coord != rankedMom[0].Coord {
		t.Errorf("far from hotspots, Hotspot (%v) should match Momentum (%v)",
			rankedHot[0].Coord, rankedMom[0].Coord)
	}
}
