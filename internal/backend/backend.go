// Package backend adapts the array DBMS to the middleware: it fetches
// tiles from the materialized pyramid and models the latency difference
// between a middleware cache hit and a round trip to the DBMS.
//
// The paper measures 19.5 ms to serve a tile on a cache hit and 984.0 ms
// on a cache miss (SciDB query, §5.5); those are the defaults here. A
// virtual clock lets experiments accumulate simulated time deterministically
// instead of sleeping.
package backend

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"forecache/internal/tile"
)

// LatencyModel holds the paper's measured per-request service times.
type LatencyModel struct {
	// Hit is the middleware service time when the tile is in the cache.
	Hit time.Duration
	// Miss is the service time when the tile must be fetched from the DBMS.
	Miss time.Duration
}

// DefaultLatency returns the paper's measured constants: 19.5 ms per hit
// and 984.0 ms per miss (§5.5).
func DefaultLatency() LatencyModel {
	return LatencyModel{Hit: 19500 * time.Microsecond, Miss: 984 * time.Millisecond}
}

// Clock abstracts waiting so experiments can simulate latency.
type Clock interface {
	// Sleep waits for d (or just accounts for it).
	Sleep(d time.Duration)
	// Elapsed returns total time slept through this clock.
	Elapsed() time.Duration
}

// SimClock accumulates sleeps without waiting; safe for concurrent use.
type SimClock struct {
	mu      sync.Mutex
	elapsed time.Duration
}

// Sleep adds d to the simulated elapsed time.
func (c *SimClock) Sleep(d time.Duration) {
	c.mu.Lock()
	c.elapsed += d
	c.mu.Unlock()
}

// Elapsed returns the accumulated simulated time.
func (c *SimClock) Elapsed() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.elapsed
}

// DBMS fetches tiles from the materialized pyramid, charging the miss
// latency per fetch. It stands in for the SciDB instance of Figure 5.
type DBMS struct {
	pyr     *tile.Pyramid
	latency LatencyModel
	clock   Clock

	// queries is atomic: every fetch — including the cross-shard coalesced
	// path — bumps it, and a mutex held just for a counter serializes all
	// concurrent fetchers.
	queries atomic.Int64
}

// NewDBMS wraps a pyramid. A nil clock disables latency accounting.
func NewDBMS(pyr *tile.Pyramid, latency LatencyModel, clock Clock) *DBMS {
	return &DBMS{pyr: pyr, latency: latency, clock: clock}
}

// Fetch retrieves a tile from the DBMS, charging the miss latency.
func (d *DBMS) Fetch(c tile.Coord) (*tile.Tile, error) {
	t, err := d.pyr.Tile(c)
	if err != nil {
		return nil, fmt.Errorf("backend: %w", err)
	}
	d.queries.Add(1)
	if d.clock != nil {
		d.clock.Sleep(d.latency.Miss)
	}
	return t, nil
}

// FetchQuiet retrieves a tile without charging latency — used by the
// prefetcher, whose DBMS work happens while the user is thinking (step 1
// of the paper's browsing cycle) and therefore off the response path.
func (d *DBMS) FetchQuiet(c tile.Coord) (*tile.Tile, error) {
	t, err := d.pyr.Tile(c)
	if err != nil {
		return nil, fmt.Errorf("backend: %w", err)
	}
	d.queries.Add(1)
	return t, nil
}

// Queries returns the number of DBMS fetches issued.
func (d *DBMS) Queries() int {
	return int(d.queries.Load())
}

// Latency returns the configured latency model.
func (d *DBMS) Latency() LatencyModel { return d.latency }

// Clock returns the DBMS's latency clock (nil when accounting is off).
func (d *DBMS) Clock() Clock { return d.clock }

// Pyramid exposes the underlying pyramid (the tile source for
// recommenders).
func (d *DBMS) Pyramid() *tile.Pyramid { return d.pyr }
