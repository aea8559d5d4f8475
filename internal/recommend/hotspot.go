package recommend

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"forecache/internal/tile"
	"forecache/internal/trace"
)

// HotspotConfig tunes the online Hotspot recommender.
type HotspotConfig struct {
	// HalfLife is the number of consumption observations at a zoom level
	// after which an unrefreshed tile's weight halves (EWMA decay by
	// observation count, not wall clock, so replays are deterministic).
	// Default 256.
	HalfLife float64
	// Stripes is the number of independently locked shards of the counter
	// table; raise it if profiles ever show contention with very large
	// session counts. Default 16.
	Stripes int
	// MaxPerStripe bounds one stripe's table: past it, entries whose
	// decayed weight has fallen below noise are swept, so a long-running
	// deployment's table cannot grow without bound. Default 8192.
	MaxPerStripe int
}

func (c HotspotConfig) withDefaults() HotspotConfig {
	if c.HalfLife <= 0 {
		c.HalfLife = 256
	}
	if c.Stripes <= 0 {
		c.Stripes = 16
	}
	if c.MaxPerStripe <= 0 {
		c.MaxPerStripe = 8192
	}
	return c
}

// hotspotMaxLevels bounds the per-level observation counters; deeper
// coordinates clamp into the last bucket (pyramids are far shallower).
const hotspotMaxLevels = 64

// sweepMinWeight is the noise floor: entries whose decayed weight has
// fallen below it are dropped by the sweep — and by snapshot export, so a
// persisted table carries only the evidence a sweep would keep.
const sweepMinWeight = 1e-3

// hotEntry is one tile's decayed consumption weight, stored together with
// the level observation count it was last normalized at (decay is applied
// lazily: weight_effective = score * gamma^(levelN - lastN)).
type hotEntry struct {
	score float64
	lastN int64
}

// hotStripe is one lock-striped shard of the counter table. sinceSweep
// counts observations since the last sweep, so a full stripe cannot
// trigger an O(stripe) scan on every single update.
type hotStripe struct {
	mu         sync.Mutex
	w          map[tile.Coord]hotEntry
	sinceSweep int
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
// that level by gamma = 0.5^(1/HalfLife), so the table tracks what is
// popular NOW and a dataset shift forgets old hotspots on its own. Predict
// scores a candidate by its share of the recent consumption at its level
// (0 when the level has never been consumed), which keeps scores
// comparable across zoom levels even when their traffic differs by orders
// of magnitude.
//
// The counter table is lock-striped by coordinate hash and the per-level
// counters are atomics, so Observe/ObserveConsumption/Predict are all safe
// for concurrent use by any number of session engines. Reset is a no-op by
// design: the table is deployment-wide state, and one session ending says
// nothing about what the population finds interesting.
type Hotspot struct {
	cfg    HotspotConfig
	gamma  float64
	levelN [hotspotMaxLevels]atomic.Int64
	strs   []hotStripe
}

// NewHotspot returns an empty online hotspot model.
func NewHotspot(cfg HotspotConfig) *Hotspot {
	cfg = cfg.withDefaults()
	h := &Hotspot{
		cfg:   cfg,
		gamma: math.Pow(0.5, 1/cfg.HalfLife),
		strs:  make([]hotStripe, cfg.Stripes),
	}
	for i := range h.strs {
		h.strs[i].w = make(map[tile.Coord]hotEntry)
	}
	return h
}

// Name identifies the model.
func (h *Hotspot) Name() string { return "hotspot" }

// Observe is a no-op: the model's signal is cross-session consumption,
// fed through ObserveConsumption from the cache outcome stream, not one
// session's request sequence.
func (h *Hotspot) Observe(trace.Request) {}

// Reset is a no-op: the counter table is shared, deployment-wide state.
func (h *Hotspot) Reset() {}

// Session implements recommend.Artifact: the shared instance IS the
// per-session model (all sessions read and feed one table).
func (h *Hotspot) Session() Model { return h }

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

// stripe picks the shard for a coordinate.
func (h *Hotspot) stripe(c tile.Coord) *hotStripe {
	hash := uint64(c.Level)*1000003 ^ uint64(uint32(c.Y))*8191 ^ uint64(uint32(c.X))
	return &h.strs[hash%uint64(len(h.strs))]
}

// ObserveConsumption records one consumed prefetched tile (implements
// core.ConsumptionObserver): the coordinate's weight at its zoom level is
// refreshed to full strength while every other tile at that level decays
// one observation step.
func (h *Hotspot) ObserveConsumption(c tile.Coord, _ trace.Phase) {
	l := level(c)
	n := h.levelN[l].Add(1)
	s := h.stripe(c)
	s.mu.Lock()
	e := s.w[c]
	if e.score > 0 {
		e.score *= math.Pow(h.gamma, float64(n-e.lastN))
	}
	e.score++
	e.lastN = n
	s.sinceSweep++
	if len(s.w) >= h.cfg.MaxPerStripe && s.sinceSweep >= h.cfg.MaxPerStripe/8+1 {
		h.sweepLocked(s)
		s.sinceSweep = 0
	}
	s.w[c] = e
	s.mu.Unlock()
}

// sweepLocked bounds a full stripe: entries whose decayed weight has
// fallen below noise are dropped first, and if the live set alone still
// exceeds the cap, the smallest-weight entries are evicted until the
// stripe is 1/8 under it. The cap is therefore HARD (a stripe holds at
// most MaxPerStripe + MaxPerStripe/8 entries between sweeps), and the
// sinceSweep cooldown amortizes the O(stripe) scan to O(1) per update
// even when every entry is hot. Called with the stripe lock held.
func (h *Hotspot) sweepLocked(s *hotStripe) {
	type weighted struct {
		c   tile.Coord
		eff float64
	}
	var live []weighted
	for c, e := range s.w {
		eff := e.score * math.Pow(h.gamma, float64(h.levelN[level(c)].Load()-e.lastN))
		if eff < sweepMinWeight {
			delete(s.w, c)
			continue
		}
		live = append(live, weighted{c: c, eff: eff})
	}
	target := h.cfg.MaxPerStripe - h.cfg.MaxPerStripe/8
	if len(s.w) <= target {
		return
	}
	sort.Slice(live, func(i, j int) bool { return live[i].eff < live[j].eff })
	for _, w := range live[:len(s.w)-target] {
		delete(s.w, w.c)
	}
}

// weight returns a coordinate's decayed consumption weight at the current
// level count n.
func (h *Hotspot) weight(c tile.Coord, n int64) float64 {
	s := h.stripe(c)
	s.mu.Lock()
	e, ok := s.w[c]
	s.mu.Unlock()
	if !ok || e.score <= 0 {
		return 0
	}
	return e.score * math.Pow(h.gamma, float64(n-e.lastN))
}

// Share returns the coordinate's share of the recent (decayed) consumption
// at its zoom level, in [0, 1] — 0 when the level was never consumed.
// Exposed for tests and operability probes.
func (h *Hotspot) Share(c tile.Coord) float64 {
	l := level(c)
	n := h.levelN[l].Load()
	if n == 0 {
		return 0
	}
	// Total decayed weight at the level after n observations is the
	// geometric sum 1 + gamma + ... + gamma^(n-1).
	total := (1 - math.Pow(h.gamma, float64(n))) / (1 - h.gamma)
	if total <= 0 {
		return 0
	}
	share := h.weight(c, n) / total
	if share > 1 {
		share = 1 // concurrent-update slack; weights are a heuristic
	}
	return share
}

// Predict ranks candidates by their share of recent cross-session
// consumption at their zoom level; ties (including the all-zero cold
// start) fall back to deterministic coordinate order.
func (h *Hotspot) Predict(req trace.Request, cands []Candidate, hst *trace.History) []Ranked {
	out := make([]Ranked, 0, len(cands))
	for _, c := range cands {
		out = append(out, Ranked{Coord: c.Coord, Score: h.Share(c.Coord)})
	}
	return sortRanked(out)
}
