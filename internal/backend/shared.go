package backend

import (
	"forecache/internal/memo"
	"forecache/internal/tile"
)

// Store is what the prediction engine needs from a tile back end. *DBMS
// implements it directly; SharedPool wraps a DBMS with a cross-session
// tile pool — the multi-user optimization the paper lists as future work
// (§6.2: "how to share data between users exploring the same dataset").
type Store interface {
	// Fetch retrieves a tile on the user-facing path, charging latency.
	Fetch(c tile.Coord) (*tile.Tile, error)
	// FetchQuiet retrieves a tile off the response path (prefetching).
	FetchQuiet(c tile.Coord) (*tile.Tile, error)
	// Latency reports the hit/miss service times.
	Latency() LatencyModel
	// Pyramid exposes the tile geometry for candidate generation.
	Pyramid() *tile.Pyramid
}

// SharedStats counts cross-session pool activity.
type SharedStats struct {
	// PoolHits are fetches answered from the shared pool or joined onto
	// another session's fetch already in flight (its work was reused).
	PoolHits int
	// DBMSFetches went through to the DBMS: one per round trip issued.
	DBMSFetches int
	// Evicted tiles were dropped by the pool's LRU.
	Evicted int
}

// SharedPool is a bounded read-through LRU of tiles shared by every
// session of one middleware deployment. When several analysts browse the
// same dataset, popular tiles (continental overviews, famous mountain
// ranges) are fetched from the DBMS once and reused: a pool hit on the
// user-facing path costs the hit latency instead of a full DBMS round
// trip, and sessions missing one tile at the same moment share one round
// trip. It is safe for concurrent use.
type SharedPool struct {
	db    *DBMS
	tiles *memo.Cache[tile.Coord, *tile.Tile]
}

// NewSharedPool wraps the DBMS with a pool holding up to capacity tiles.
func NewSharedPool(db *DBMS, capacity int) *SharedPool {
	if capacity < 1 {
		capacity = 1
	}
	return &SharedPool{
		db:    db,
		tiles: memo.New[tile.Coord](int64(capacity), func(*tile.Tile) int64 { return 1 }),
	}
}

// Fetch serves the user-facing path: pool hits — a pooled tile, or a DBMS
// fetch another session already has in flight — cost the hit latency,
// pool misses go to the DBMS (miss latency) and populate the pool.
func (p *SharedPool) Fetch(c tile.Coord) (*tile.Tile, error) {
	t, hit, err := p.tiles.Get(c, func() (*tile.Tile, error) { return p.db.Fetch(c) })
	if hit && err == nil {
		if clock := p.db.Clock(); clock != nil {
			clock.Sleep(p.db.Latency().Hit)
		}
	}
	return t, err
}

// FetchQuiet serves prefetching: no latency is charged either way, but the
// pool still deduplicates DBMS work across sessions.
func (p *SharedPool) FetchQuiet(c tile.Coord) (*tile.Tile, error) {
	t, _, err := p.tiles.Get(c, func() (*tile.Tile, error) { return p.db.FetchQuiet(c) })
	return t, err
}

// Latency reports the wrapped DBMS's latency model.
func (p *SharedPool) Latency() LatencyModel { return p.db.Latency() }

// Pyramid exposes the wrapped DBMS's pyramid.
func (p *SharedPool) Pyramid() *tile.Pyramid { return p.db.Pyramid() }

// Stats snapshots the pool counters.
func (p *SharedPool) Stats() SharedStats {
	st := p.tiles.Stats()
	return SharedStats{
		PoolHits:    int(st.Hits),
		DBMSFetches: int(st.Misses),
		Evicted:     int(st.Evicted),
	}
}

// Len returns the number of pooled tiles.
func (p *SharedPool) Len() int { return p.tiles.Stats().Entries }
