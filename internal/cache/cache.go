// Package cache implements ForeCache's middleware tile cache manager
// (paper §3). The main-memory cache is split into regions: each
// recommendation model is allotted a limited number of tile slots for its
// predictions (the "allocation strategy", re-evaluated after every
// request), and a separate LRU region holds the last n tiles the interface
// actually requested.
//
// Lookups are O(1): one coordinate index covers every region (model
// regions and the LRU), maintained on insert and evict.
//
// Beyond serving lookups, the manager attributes each prefetched tile's
// fate to the model region, batch position and predicted analysis phase
// that prefetched it: a tile consumed by a later request is a hit for its
// position, a tile evicted without ever being consumed is a miss. These
// Outcomes are the raw material the prefetch scheduler's learned
// position-utility curve and the adaptive allocation policy's per-(phase,
// model) consumption rates are fit from (Khameleon fits utility from
// observed client consumption); the engine drains them per request via
// TakeOutcomes.
package cache

import (
	"container/list"
	"slices"
	"sort"
	"sync"
	"time"

	"forecache/internal/obs"
	"forecache/internal/tile"
	"forecache/internal/trace"
)

// Stats counts cache activity. Prediction accuracy in the paper's
// experiments is exactly this cache's hit rate (paper §5.2.2).
type Stats struct {
	Hits       int
	Misses     int
	Prefetched int
	Evicted    int
}

// Add folds o into s.
func (s *Stats) Add(o Stats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Prefetched += o.Prefetched
	s.Evicted += o.Evicted
}

// HitRate returns Hits / (Hits + Misses), or 0 before any lookups.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Outcome is the fate of one prefetched tile, attributed to the model
// region that held it, the batch position (0 = the model's top-ranked
// prediction) it was prefetched at, and the analysis phase the allocation
// policy predicted when the prefetch was decided. Hit means a request
// consumed the tile; !Hit means it was evicted without ever being consumed.
// Re-prefetching a still-unconsumed coordinate refreshes the entry in place
// and emits no outcome — the old prediction instance goes unjudged and the
// new one is judged at its own position (and under the phase then in
// effect). The phase lets the feedback loop keep per-(phase, model)
// consumption tallies: the raw signal the adaptive allocation policy
// re-splits the prefetch budget from. Coord names the tile itself, so
// population-level consumers (the cross-session hotspot model) can learn
// WHICH tiles get consumed, not just whose predictions do.
type Outcome struct {
	Model    string
	Position int
	Phase    trace.Phase
	Coord    tile.Coord
	Hit      bool
}

// outcomeBufferCap bounds the pending-outcome buffer so an enabled but
// never-drained manager cannot grow without bound; past the cap the oldest
// outcomes are dropped (the curve fit is an EWMA, losing ancient samples
// is harmless).
const outcomeBufferCap = 4096

// predTile is one model-region slot: the tile plus the attribution needed
// to turn its fate into an Outcome.
type predTile struct {
	t        *tile.Tile
	pos      int         // batch rank the prefetcher assigned (0 = front-runner)
	ph       trace.Phase // predicted phase when the prefetch was decided
	consumed bool        // a request already hit this entry
	// born is the insert time, stamped only when observability is on: the
	// start of the prefetch "lead time" (insert-to-first-consumption)
	// window. Zero when untracked.
	born time.Time
}

// regionRef names one model region holding a coordinate.
type regionRef struct {
	model string
	pt    *predTile
}

// coordEntry is the index record for one coordinate: which model regions
// hold it (several models often agree on the user's next tile) and its LRU
// element when the interface recently requested it.
type coordEntry struct {
	refs   []regionRef
	recent *list.Element
}

// Manager is the middleware tile cache. It is safe for concurrent use.
type Manager struct {
	mu sync.Mutex

	// model regions: model name -> recently prefetched tiles, capped by the
	// allocation strategy, newest/highest-ranked first.
	allocs  map[string]int
	regions map[string][]*predTile

	// byCoord is the unified coordinate index over every region; Lookup
	// resolves any coordinate with one map access.
	byCoord map[tile.Coord]*coordEntry

	// LRU region for the interface's last n requested tiles.
	recentCap int
	recent    *list.List // of *tile.Tile, front = most recent

	gen uint64 // see Generation

	// prefetch-outcome attribution, drained by TakeOutcomes.
	trackOutcomes bool
	outcomes      []Outcome

	// obs, when set, receives the prefetch lead time (insert to first
	// consumption) of every consumed prediction entry. now is the clock
	// used for lead-time stamps (a test seam; time.Now by default).
	obs *obs.Pipeline
	now func() time.Time

	// stats counts since construction and only ever grows; statsBase is
	// its value at the last ResetStats, so the resettable view is the
	// difference and a reset can never roll the lifetime view backwards.
	stats     Stats
	statsBase Stats
}

// NewManager returns a cache whose LRU region retains the last recentCap
// requested tiles. Model allotments start empty; call SetAllocations.
func NewManager(recentCap int) *Manager {
	if recentCap < 1 {
		recentCap = 1
	}
	return &Manager{
		allocs:    make(map[string]int),
		regions:   make(map[string][]*predTile),
		byCoord:   make(map[tile.Coord]*coordEntry),
		recentCap: recentCap,
		recent:    list.New(),
		now:       time.Now,
	}
}

// SetObs attaches the observability pipeline: prediction entries get
// insert timestamps and every first consumption reports its lead time.
// Nil detaches (the default — untracked entries pay no clock reads).
func (m *Manager) SetObs(p *obs.Pipeline) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.obs = p
}

// TrackOutcomes enables (or disables) prefetch-outcome attribution. Off by
// default so deployments without utility learning pay nothing.
func (m *Manager) TrackOutcomes(on bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.trackOutcomes = on
	if !on {
		m.outcomes = nil
	}
}

// TakeOutcomes returns and clears the prefetch outcomes accumulated since
// the last call: hits recorded at consumption, misses at eviction.
func (m *Manager) TakeOutcomes() []Outcome {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := m.outcomes
	m.outcomes = nil
	return out
}

// recordOutcomeLocked appends one attribution sample, bounding the buffer.
func (m *Manager) recordOutcomeLocked(o Outcome) {
	if !m.trackOutcomes {
		return
	}
	if len(m.outcomes) >= outcomeBufferCap {
		m.outcomes = m.outcomes[1:]
	}
	m.outcomes = append(m.outcomes, o)
}

// entryForLocked returns (creating) the index record for a coordinate.
func (m *Manager) entryForLocked(c tile.Coord) *coordEntry {
	e := m.byCoord[c]
	if e == nil {
		e = &coordEntry{}
		m.byCoord[c] = e
	}
	return e
}

// dropIfEmptyLocked removes an index record no region points at anymore.
func (m *Manager) dropIfEmptyLocked(c tile.Coord, e *coordEntry) {
	if len(e.refs) == 0 && e.recent == nil {
		delete(m.byCoord, c)
	}
}

// indexAddLocked points the coordinate index at a model-region entry.
func (m *Manager) indexAddLocked(model string, pt *predTile) {
	e := m.entryForLocked(pt.t.Coord)
	for i := range e.refs {
		if e.refs[i].model == model {
			e.refs[i].pt = pt
			return
		}
	}
	e.refs = append(e.refs, regionRef{model: model, pt: pt})
}

// indexRemoveLocked drops one model-region entry from the coordinate index.
func (m *Manager) indexRemoveLocked(model string, c tile.Coord) {
	e := m.byCoord[c]
	if e == nil {
		return
	}
	for i := range e.refs {
		if e.refs[i].model == model {
			e.refs = append(e.refs[:i], e.refs[i+1:]...)
			break
		}
	}
	m.dropIfEmptyLocked(c, e)
}

// evictRegionLocked accounts one region entry's eviction: index removal,
// the Evicted counter, and — for entries never consumed — a miss outcome
// for the position that prefetched them.
func (m *Manager) evictRegionLocked(model string, pt *predTile) {
	m.indexRemoveLocked(model, pt.t.Coord)
	m.stats.Evicted++
	if !pt.consumed {
		m.recordOutcomeLocked(Outcome{Model: model, Position: pt.pos, Phase: pt.ph, Coord: pt.t.Coord, Hit: false})
	}
}

// SetAllocations installs a new allocation strategy: tile slots per model.
// Existing model regions are trimmed to the new allotments; models absent
// from the map lose their region entirely.
func (m *Manager) SetAllocations(allocs map[string]int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	clear(m.allocs) // never handed out: Allocations returns a copy
	for name, k := range allocs {
		if k < 0 {
			k = 0
		}
		m.allocs[name] = k
	}
	for name, region := range m.regions {
		k, ok := m.allocs[name]
		if !ok {
			for _, pt := range region {
				m.evictRegionLocked(name, pt)
			}
			delete(m.regions, name)
			continue
		}
		if len(region) > k {
			for _, pt := range region[k:] {
				m.evictRegionLocked(name, pt)
			}
			m.regions[name] = region[:k]
		}
	}
}

// FillPredictions replaces a model's region with a whole ranked batch at
// once, trimmed to the model's allotment; a tile's slice index is its
// batch position and ph is the analysis phase the allocation was made under
// (both recorded as the attribution of the entry's eventual outcome). Tiles
// beyond the allotment count as evictions. Unknown models get allotment 0.
// An old entry re-predicted by the new batch is refreshed rather than
// judged: no miss outcome is emitted for it, and the new entry is a fresh
// prediction instance judged at the new position and phase.
func (m *Manager) FillPredictions(model string, tiles []*tile.Tile, ph trace.Phase) {
	m.mu.Lock()
	defer m.mu.Unlock()
	k := m.allocs[model]
	old := m.regions[model]
	if len(tiles) > k {
		tiles = tiles[:k]
	}
	for _, pt := range old {
		// The Evicted counter keeps the paper's accounting (a replaced
		// region is evicted wholesale), but only entries that truly leave
		// the cache — not re-predicted coordinates — are judged as misses.
		m.indexRemoveLocked(model, pt.t.Coord)
		m.stats.Evicted++
		if !pt.consumed && !slices.ContainsFunc(tiles, func(t *tile.Tile) bool { return t != nil && t.Coord == pt.t.Coord }) {
			m.recordOutcomeLocked(Outcome{Model: model, Position: pt.pos, Phase: pt.ph, Coord: pt.t.Coord, Hit: false})
		}
	}
	var born time.Time
	if m.obs != nil {
		born = m.now()
	}
	region := make([]*predTile, 0, len(tiles))
	for i, t := range tiles {
		if t == nil || slices.ContainsFunc(region, func(pt *predTile) bool { return pt.t.Coord == t.Coord }) {
			continue // keep the index one-entry-per-(coord, model)
		}
		pt := &predTile{t: t, pos: i, ph: ph, born: born}
		region = append(region, pt)
		m.indexAddLocked(model, pt)
	}
	m.regions[model] = region
	m.stats.Prefetched += len(region)
}

// InsertPrediction adds one prefetched tile to a model's region, newest
// first, trimmed to the model's current allotment: the one way a prefetch
// delivery enters the cache. gen is the Generation the tile was requested
// under; a delivery from an older generation is dropped. pos is the batch
// position the prefetcher ranked the tile at (0 = front-runner) and ph the
// analysis phase predicted when the batch was submitted — the attribution
// its eventual hit/miss outcome is recorded under. Tiles arrive one at a
// time and, from a scheduler, possibly out of order; the region behaves as
// a small ring: a duplicate coordinate is refreshed in place (the old
// instance goes unjudged), and tiles beyond the allotment fall off the old
// end as evictions. A model with no allotment drops the tile.
func (m *Manager) InsertPrediction(model string, gen uint64, t *tile.Tile, pos int, ph trace.Phase) {
	if t == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	k := m.allocs[model]
	if k <= 0 || gen != m.gen {
		return
	}
	fresh := &predTile{t: t, pos: pos, ph: ph}
	if m.obs != nil {
		fresh.born = m.now()
	}
	// Shift the newer entries down over slot i: the refreshed duplicate
	// (judged afresh at the new position), else the old end.
	region := m.regions[model]
	i := slices.IndexFunc(region, func(pt *predTile) bool { return pt.t.Coord == t.Coord })
	if i < 0 && len(region) < k {
		region, i = append(slices.Grow(region, k-len(region)), nil), len(region)
	} else if i < 0 {
		for _, evicted := range region[k-1:] {
			m.evictRegionLocked(model, evicted)
		}
		region, i = region[:k], k-1
	}
	copy(region[1:i+1], region[:i])
	region[0] = fresh
	m.regions[model] = region
	m.indexAddLocked(model, fresh)
	m.stats.Prefetched++
}

// RefreshPrediction re-predicts a tile already live in model's region
// before its new delivery arrives: the entry moves to the region's front,
// takes batch position pos and phase ph, and is unconsumed again, so the
// batch's other deliveries cannot ring it out and judge the old instance a
// miss. It records no outcome, counts nothing and allocates nothing; a
// tile not in the region is left to its delivery.
func (m *Manager) RefreshPrediction(model string, c tile.Coord, pos int, ph trace.Phase) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e := m.byCoord[c]
	if e == nil {
		return
	}
	for _, ref := range e.refs {
		if ref.model != model {
			continue
		}
		region := m.regions[model]
		i := slices.Index(region, ref.pt)
		copy(region[1:i+1], region[:i])
		region[0] = ref.pt
		ref.pt.pos, ref.pt.ph, ref.pt.consumed = pos, ph, false
		return
	}
}

// Lookup returns the cached tile for c from any region, counting a hit or
// miss: one index access resolves the model regions (checked first) and the
// recent-request LRU alike. The first consumption of a prefetched entry
// records a hit outcome for the model and batch position that prefetched
// it.
func (m *Manager) Lookup(c tile.Coord) (*tile.Tile, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e := m.byCoord[c]; e != nil {
		if len(e.refs) > 0 {
			// Every model that predicted this tile gets consumption credit:
			// models often agree on the user's next tile, and judging only
			// one of them would later count the others' correct predictions
			// as misses at eviction.
			var oldestBorn time.Time
			for _, ref := range e.refs {
				if !ref.pt.consumed {
					ref.pt.consumed = true
					m.recordOutcomeLocked(Outcome{Model: ref.model, Position: ref.pt.pos, Phase: ref.pt.ph, Coord: c, Hit: true})
					if !ref.pt.born.IsZero() && (oldestBorn.IsZero() || ref.pt.born.Before(oldestBorn)) {
						oldestBorn = ref.pt.born
					}
				}
			}
			// One lead-time sample per consumption, measured from the
			// earliest insert among the newly consumed entries: how far
			// ahead of the user the prefetcher ran.
			if m.obs != nil && !oldestBorn.IsZero() {
				m.obs.ObserveLeadTime(m.now().Sub(oldestBorn))
			}
			m.stats.Hits++
			return e.refs[0].pt.t, true
		}
		if e.recent != nil {
			m.recent.MoveToFront(e.recent)
			m.stats.Hits++
			return e.recent.Value.(*tile.Tile), true
		}
	}
	m.stats.Misses++
	return nil, false
}

// Prediction is one live model-region entry, as exposed by Predictions.
type Prediction struct {
	// Model is the region holding the tile.
	Model string
	// Position is the batch rank the prefetcher assigned (0 = front-runner).
	Position int
	// Tile is the cached tile.
	Tile *tile.Tile
}

// Predictions snapshots every live model-region entry in deterministic
// order (model name, then region order: newest batch first). It is purely
// observational — no consumption marks, no outcomes, no stats — so readers
// such as push-stream backfill can replay the cache's contents without
// perturbing the feedback loop that judges predictions.
func (m *Manager) Predictions() []Prediction {
	m.mu.Lock()
	defer m.mu.Unlock()
	models := make([]string, 0, len(m.regions))
	total := 0
	for model, region := range m.regions {
		if len(region) > 0 {
			models = append(models, model)
			total += len(region)
		}
	}
	sort.Strings(models)
	out := make([]Prediction, 0, total)
	for _, model := range models {
		for _, pt := range m.regions[model] {
			out = append(out, Prediction{Model: model, Position: pt.pos, Tile: pt.t})
		}
	}
	return out
}

// InsertRecent records a tile the interface actually requested into the
// LRU region, evicting the least recently used past capacity.
func (m *Manager) InsertRecent(t *tile.Tile) {
	if t == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	e := m.entryForLocked(t.Coord)
	if e.recent != nil {
		m.recent.MoveToFront(e.recent)
		e.recent.Value = t
		return
	}
	e.recent = m.recent.PushFront(t)
	for m.recent.Len() > m.recentCap {
		back := m.recent.Back()
		m.recent.Remove(back)
		c := back.Value.(*tile.Tile).Coord
		if be := m.byCoord[c]; be != nil {
			be.recent = nil
			m.dropIfEmptyLocked(c, be)
		}
		m.stats.Evicted++
	}
}

// Stats returns a snapshot of the counters since the last ResetStats.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Stats{
		Hits:       m.stats.Hits - m.statsBase.Hits,
		Misses:     m.stats.Misses - m.statsBase.Misses,
		Prefetched: m.stats.Prefetched - m.statsBase.Prefetched,
		Evicted:    m.stats.Evicted - m.statsBase.Evicted,
	}
}

// LifetimeStats returns the counters since construction, which ResetStats
// does not clear: the monotone view behind the *_total series on /metrics.
func (m *Manager) LifetimeStats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// ResetStats zeroes the Stats view (e.g. between experiment phases).
func (m *Manager) ResetStats() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.statsBase = m.stats
}

// Clear empties every region and the LRU (a new session), keeping the
// allocation strategy, and moves to a new Generation. Cleared prediction
// entries are not judged: a session reset says nothing about whether the
// predictions were good.
func (m *Manager) Clear() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.regions = make(map[string][]*predTile)
	m.byCoord = make(map[tile.Coord]*coordEntry)
	m.recent.Init()
	m.outcomes = nil
	m.gen++
}

// Generation names the cache's current contents; pass it to
// InsertPrediction with each tile requested now.
func (m *Manager) Generation() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.gen
}
