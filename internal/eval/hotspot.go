package eval

import (
	"sort"

	"forecache/internal/recommend"
	"forecache/internal/tile"
	"forecache/internal/trace"
)

// traceHotspot is the Hotspot baseline of Doshi et al. (paper §5.2.3):
// Momentum with awareness of popular tiles. The most-requested tiles in
// the training traces become hotspots; when the user is near one,
// candidates that move her closer to it are ranked above the rest,
// otherwise the model behaves exactly like Momentum. It is trained ahead
// of time and then fixed, and exists only as a comparison row — the
// deployed hotspot model is recommend.Hotspot, which learns the same
// signal online.
type traceHotspot struct {
	momentum *recommend.Momentum
	hotspots []tile.Coord
	// radius is how near (Manhattan tiles, at the deeper of the two levels)
	// a hotspot must be to take over the ranking.
	radius int
}

// newTraceHotspot trains the baseline: the n most-requested tiles in the
// traces become hotspots.
func newTraceHotspot(traces []*trace.Trace, n, radius int) *traceHotspot {
	counts := make(map[tile.Coord]int)
	for _, t := range traces {
		for _, r := range t.Requests {
			counts[r.Coord]++
		}
	}
	coords := make([]tile.Coord, 0, len(counts))
	for c := range counts {
		coords = append(coords, c)
	}
	sort.Slice(coords, func(i, j int) bool {
		if counts[coords[i]] != counts[coords[j]] {
			return counts[coords[i]] > counts[coords[j]]
		}
		return coords[i].Less(coords[j])
	})
	if len(coords) > n {
		coords = coords[:n]
	}
	return &traceHotspot{momentum: recommend.NewMomentum(), hotspots: coords, radius: radius}
}

// Name identifies the model.
func (m *traceHotspot) Name() string { return "hotspot" }

// Observe is a no-op.
func (m *traceHotspot) Observe(trace.Request) {}

// Reset is a no-op.
func (m *traceHotspot) Reset() {}

// Predict behaves like Momentum unless a hotspot is within radius of the
// current tile; then candidates are re-scored by how much closer they
// bring the user to the nearest hotspot.
func (m *traceHotspot) Predict(req trace.Request, cands []recommend.Candidate, h *trace.History) []recommend.Ranked {
	out := m.momentum.Predict(req, cands, h)
	nearest, dist := m.nearest(req.Coord)
	if dist > m.radius {
		return out
	}
	for i, r := range out {
		// Approach bonus dominates the momentum prior; among approaching
		// tiles, closer is better.
		if d := r.Coord.ManhattanTo(nearest); d < dist {
			out[i].Score += 2 + 1/float64(1+d)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Coord.Less(out[j].Coord)
	})
	return out
}

func (m *traceHotspot) nearest(c tile.Coord) (tile.Coord, int) {
	best := tile.Coord{}
	bestD := 1 << 30
	for _, hc := range m.hotspots {
		if d := c.ManhattanTo(hc); d < bestD {
			best, bestD = hc, d
		}
	}
	return best, bestD
}
