package recommend

import (
	"math"
	"sync"

	"forecache/internal/tile"
	"forecache/internal/trace"
)

// HotspotConfig has no fields: the decay half-life is hotspotHalfLife.
// NewHotspot still takes one, and DefaultSpecs a non-nil one to add the
// model, so their callers keep compiling.
type HotspotConfig struct{}

// hotspotHalfLife is the number of consumption observations at a zoom
// level after which an unrefreshed tile's weight halves (EWMA decay by
// observation count, not wall clock, so replays are deterministic).
const hotspotHalfLife = 256

// hotspotGamma is the per-observation decay factor, 0.5^(1/hotspotHalfLife).
var hotspotGamma = math.Pow(0.5, 1.0/hotspotHalfLife)

// hotspotMaxLevels bounds the per-level observation counters; deeper
// coordinates clamp into the last bucket (pyramids are far shallower).
const hotspotMaxLevels = 64

// noiseWeight is the noise floor: snapshot export drops entries whose
// decayed weight has fallen below it.
const noiseWeight = 1e-3

// hotEntry is one tile's decayed consumption weight, stored together with
// the level observation count it was last normalized at (decay is applied
// lazily: weight_effective = score * hotspotGamma^(levelN - lastN)).
type hotEntry struct {
	score float64
	lastN int64
}

// Hotspot is the online, cross-session hotspot recommender: it ranks
// candidate tiles by how often the whole deployment's sessions recently
// consumed them. Where the trace-trained Hotspot baseline of Doshi et al.
// (paper §5.2.3; internal/eval) fixes its hotspots ahead of time, this
// model is training-free and population-level, in the spirit of
// Continuous Prefetch's cross-user access statistics: one shared instance
// is fed the coordinates of consumed prefetched tiles from the same
// cache.Outcome stream the FeedbackCollector drains
// (core.Config.Consumption), and every session engine reads the same table.
//
// Weights are kept per zoom level and EWMA-decayed by observation count:
// each new consumption at a level multiplies every other tile's weight at
// that level by hotspotGamma = 0.5^(1/hotspotHalfLife), so the table
// tracks what is popular NOW and a dataset shift forgets old hotspots on
// its own. Predict scores a candidate by its share of the recent
// consumption at its level (0 when the level has never been consumed),
// which keeps scores comparable across zoom levels even when their traffic
// differs by orders of magnitude.
//
// The table is one map under one mutex, at most one entry per pyramid
// tile: only successfully served tiles are ever consumed, so the pyramid
// bounds it. ObserveConsumption and Predict are safe for concurrent use by
// any number of session engines, which all share the one instance. No
// session resets it: the table is deployment-wide state, and one session
// ending says nothing about what the population finds interesting.
type Hotspot struct {
	mu     sync.Mutex
	levelN [hotspotMaxLevels]int64
	w      map[tile.Coord]hotEntry
}

// NewHotspot returns an empty online hotspot model.
func NewHotspot(HotspotConfig) *Hotspot {
	return &Hotspot{w: make(map[tile.Coord]hotEntry)}
}

// Name identifies the model.
func (h *Hotspot) Name() string { return "hotspot" }

// level clamps a coordinate's zoom level into the counter range.
func level(c tile.Coord) int {
	l := c.Level
	if l < 0 {
		l = 0
	}
	if l >= hotspotMaxLevels {
		l = hotspotMaxLevels - 1
	}
	return l
}

// ObserveConsumption records one consumed prefetched tile (implements
// core.ConsumptionObserver): the coordinate's weight at its zoom level is
// refreshed to full strength while every other tile at that level decays
// one observation step.
func (h *Hotspot) ObserveConsumption(c tile.Coord, _ trace.Phase) {
	l := level(c)
	h.mu.Lock()
	h.levelN[l]++
	n := h.levelN[l]
	e := h.w[c]
	if e.score > 0 {
		e.score *= math.Pow(hotspotGamma, float64(n-e.lastN))
	}
	e.score++
	e.lastN = n
	h.w[c] = e
	h.mu.Unlock()
}

// shareLocked returns the coordinate's share of the recent (decayed)
// consumption at its zoom level, in [0, 1] — 0 when the level was never
// consumed. h.mu must be held.
func (h *Hotspot) shareLocked(c tile.Coord) float64 {
	n := h.levelN[level(c)]
	e := h.w[c]
	if n == 0 || e.score <= 0 {
		return 0
	}
	// Total decayed weight at the level after n observations is the
	// geometric sum 1 + γ + ... + γ^(n-1), γ = hotspotGamma.
	total := (1 - math.Pow(hotspotGamma, float64(n))) / (1 - hotspotGamma)
	if total <= 0 {
		return 0
	}
	share := e.score * math.Pow(hotspotGamma, float64(n-e.lastN)) / total
	return min(share, 1) // rounding slack; weights are a heuristic
}

// Predict ranks candidates by their share of recent cross-session
// consumption at their zoom level; ties (including the all-zero cold
// start) fall back to deterministic coordinate order.
func (h *Hotspot) Predict(req trace.Request, cands []Candidate, hst *trace.History) []Ranked {
	out := make([]Ranked, 0, len(cands))
	h.mu.Lock()
	for _, c := range cands {
		out = append(out, Ranked{Coord: c.Coord, Score: h.shareLocked(c.Coord)})
	}
	h.mu.Unlock()
	return sortRanked(out)
}
