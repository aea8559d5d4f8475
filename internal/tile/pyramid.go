package tile

import (
	"fmt"
	"sync"

	"forecache/internal/array"
)

// Params configures pyramid construction.
type Params struct {
	// TileSize is the per-side cell count of every tile (tiling interval,
	// identical across zoom levels per paper §2.3).
	TileSize int
	// Agg is the aggregation applied when building each coarser level from
	// the finer one with aggregation parameters (2, 2).
	Agg array.Agg
	// Metadata, when non-nil, computes per-tile signatures at build time.
	Metadata MetadataFunc
}

// MetadataFunc computes the signature metadata for a freshly built tile.
// The sig package supplies implementations; keeping it a function type here
// avoids a dependency cycle.
type MetadataFunc func(*Tile) map[string][]float64

// Pyramid is the complete set of zoom levels for one dataset, with every
// data tile materialized (the paper builds all tiles in advance and stores
// them in SciDB; we keep the level arrays plus a tile map).
type Pyramid struct {
	params Params
	attrs  []string
	levels []*array.Array // levels[0] is the coarsest (one tile)

	mu    sync.RWMutex
	tiles map[Coord]*Tile
}

// Build constructs a pyramid over the raw array. The raw data becomes the
// most detailed zoom level (no aggregation, paper §2.3); each coarser level
// is a separate materialized view built by aggregating 2x2 windows. The
// raw array is padded with empty cells to the next power-of-two multiple of
// TileSize so every level tiles exactly.
func Build(raw *array.Array, p Params) (*Pyramid, error) {
	if p.TileSize <= 0 {
		return nil, fmt.Errorf("tile: TileSize must be positive, got %d", p.TileSize)
	}
	maxDim := raw.Rows()
	if raw.Cols() > maxDim {
		maxDim = raw.Cols()
	}
	if maxDim == 0 {
		return nil, fmt.Errorf("tile: empty raw array")
	}
	// levels = 1 + ceil(log2(maxDim / TileSize)), at least 1.
	levels := 1
	for size := p.TileSize; size < maxDim; size *= 2 {
		levels++
	}
	target := p.TileSize << (levels - 1)
	base := raw
	if raw.Rows() != target || raw.Cols() != target {
		padded, err := raw.Subarray(0, 0, target, target)
		if err != nil {
			return nil, fmt.Errorf("tile: pad raw to %d: %w", target, err)
		}
		base = padded
	}

	pyr := &Pyramid{
		params: p,
		attrs:  append([]string(nil), raw.Schema().Attrs...),
		levels: make([]*array.Array, levels),
		tiles:  make(map[Coord]*Tile),
	}
	pyr.levels[levels-1] = base
	// Materialized views are computed bottom-up, doubling the aggregation
	// interval at each coarser level (paper §2.3).
	for l := levels - 2; l >= 0; l-- {
		coarser, err := pyr.levels[l+1].Regrid(2, 2, p.Agg)
		if err != nil {
			return nil, fmt.Errorf("tile: build level %d: %w", l, err)
		}
		pyr.levels[l] = coarser
	}
	// Partition every level into tiles and compute metadata.
	for l := 0; l < levels; l++ {
		side := 1 << l
		for y := 0; y < side; y++ {
			for x := 0; x < side; x++ {
				c := Coord{Level: l, Y: y, X: x}
				t, err := pyr.cut(c)
				if err != nil {
					return nil, err
				}
				if p.Metadata != nil {
					t.Signatures = p.Metadata(t)
				}
				pyr.tiles[c] = t
			}
		}
	}
	return pyr, nil
}

// cut extracts the tile at c from its level's materialized view.
func (p *Pyramid) cut(c Coord) (*Tile, error) {
	level := p.levels[c.Level]
	ts := p.params.TileSize
	sub, err := level.Subarray(c.Y*ts, c.X*ts, (c.Y+1)*ts, (c.X+1)*ts)
	if err != nil {
		return nil, fmt.Errorf("tile: cut %s: %w", c, err)
	}
	t := &Tile{Coord: c, Size: ts, Attrs: p.attrs, Data: make([][]float64, len(p.attrs))}
	for i, attr := range p.attrs {
		g, err := sub.AttrData(attr)
		if err != nil {
			return nil, err
		}
		t.Data[i] = g
	}
	return t, nil
}

// NumLevels returns the number of zoom levels.
func (p *Pyramid) NumLevels() int { return len(p.levels) }

// TileSize returns the per-side cell count of every tile.
func (p *Pyramid) TileSize() int { return p.params.TileSize }

// Attrs returns the attribute names carried by every tile.
func (p *Pyramid) Attrs() []string { return append([]string(nil), p.attrs...) }

// Side returns the number of tiles per side at the given level (2^level).
func (p *Pyramid) Side(level int) int { return 1 << level }

// NumTiles returns the total number of materialized tiles.
func (p *Pyramid) NumTiles() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return len(p.tiles)
}

// Contains reports whether c addresses a tile inside the pyramid.
func (p *Pyramid) Contains(c Coord) bool {
	if c.Level < 0 || c.Level >= len(p.levels) {
		return false
	}
	side := p.Side(c.Level)
	return c.Y >= 0 && c.Y < side && c.X >= 0 && c.X < side
}

// Tile returns the materialized tile at c.
func (p *Pyramid) Tile(c Coord) (*Tile, error) {
	if !p.Contains(c) {
		return nil, fmt.Errorf("tile: %s outside pyramid (%d levels)", c, len(p.levels))
	}
	p.mu.RLock()
	t := p.tiles[c]
	p.mu.RUnlock()
	if t == nil {
		return nil, fmt.Errorf("tile: %s not materialized", c)
	}
	return t, nil
}

// Level exposes the materialized view array for a zoom level (coarsest = 0),
// mainly for inspection and tests.
func (p *Pyramid) Level(l int) (*array.Array, error) {
	if l < 0 || l >= len(p.levels) {
		return nil, fmt.Errorf("tile: level %d outside [0,%d)", l, len(p.levels))
	}
	return p.levels[l], nil
}

// EachTile calls fn for every materialized tile in deterministic order
// (level, then row-major), stopping early if fn returns false.
func (p *Pyramid) EachTile(fn func(*Tile) bool) {
	for l := 0; l < len(p.levels); l++ {
		side := p.Side(l)
		for y := 0; y < side; y++ {
			for x := 0; x < side; x++ {
				p.mu.RLock()
				t := p.tiles[Coord{Level: l, Y: y, X: x}]
				p.mu.RUnlock()
				if t == nil {
					continue
				}
				if !fn(t) {
					return
				}
			}
		}
	}
}

// MemBytes estimates the heap footprint of all materialized tiles.
func (p *Pyramid) MemBytes() int {
	total := 0
	p.EachTile(func(t *Tile) bool {
		total += t.Bytes()
		return true
	})
	return total
}

// ComputeMetadata (re)computes every tile's signature metadata with fn.
// It exists for two-pass pipelines where the metadata computer itself must
// first be trained on the pyramid's tiles (e.g. the SIFT visual-word
// codebook) before signatures can be attached.
func (p *Pyramid) ComputeMetadata(fn MetadataFunc) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, t := range p.tiles {
		t.Signatures = fn(t)
	}
}

// SampleTiles returns up to n tiles in deterministic order (level-major),
// spread across zoom levels — the training set for signature codebooks.
func (p *Pyramid) SampleTiles(n int) []*Tile {
	if n <= 0 {
		return nil
	}
	total := p.NumTiles()
	stride := total / n
	if stride < 1 {
		stride = 1
	}
	var out []*Tile
	i := 0
	p.EachTile(func(t *Tile) bool {
		if i%stride == 0 && len(out) < n {
			out = append(out, t)
		}
		i++
		return len(out) < n
	})
	return out
}
