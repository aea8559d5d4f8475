package tile

import (
	"fmt"

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
// them in SciDB). It holds the tiles and nothing else: each cell once, in
// its tile. The pyramid is immutable once built, so reads take no lock.
type Pyramid struct {
	params Params
	attrs  []string
	levels int
	tiles  []*Tile // EachTile order; see index
}

// Build constructs a pyramid over the raw array. The raw data becomes the
// most detailed zoom level (no aggregation, paper §2.3); each coarser level
// is a materialized view built by aggregating 2x2 windows. The raw array is
// padded with empty cells to the next power-of-two multiple of TileSize so
// every level tiles exactly. The views, the raw array among them, are
// build-time only: every tile copies its cells out, and the pyramid keeps
// none of them.
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
	views := make([]*array.Array, levels) // views[0] is the coarsest (one tile)
	views[levels-1] = raw
	if raw.Rows() != target || raw.Cols() != target {
		padded, err := raw.Subarray(0, 0, target, target)
		if err != nil {
			return nil, fmt.Errorf("tile: pad raw to %d: %w", target, err)
		}
		views[levels-1] = padded
	}
	// Materialized views are computed bottom-up, doubling the aggregation
	// interval at each coarser level (paper §2.3).
	for l := levels - 2; l >= 0; l-- {
		coarser, err := views[l+1].Regrid(2, 2, p.Agg)
		if err != nil {
			return nil, fmt.Errorf("tile: build level %d: %w", l, err)
		}
		views[l] = coarser
	}

	pyr := &Pyramid{
		params: p,
		attrs:  append([]string(nil), raw.Schema().Attrs...),
		levels: levels,
		tiles:  make([]*Tile, 0, index(Coord{Level: levels})), // every level's tiles
	}
	// Partition every level into tiles and compute metadata.
	for l, view := range views {
		side := 1 << l
		for y := 0; y < side; y++ {
			for x := 0; x < side; x++ {
				t, err := pyr.cut(view, Coord{Level: l, Y: y, X: x})
				if err != nil {
					return nil, err
				}
				if p.Metadata != nil {
					t.Signatures = p.Metadata(t)
				}
				pyr.tiles = append(pyr.tiles, t)
			}
		}
	}
	return pyr, nil
}

// index places c in Pyramid.tiles: after the (4^l - 1) / 3 tiles of the
// coarser levels, row-major within its own level.
func index(c Coord) int {
	return (1<<(2*c.Level)-1)/3 + c.Y<<c.Level + c.X
}

// cut copies the tile at c out of its level's materialized view.
func (p *Pyramid) cut(view *array.Array, c Coord) (*Tile, error) {
	ts := p.params.TileSize
	sub, err := view.Subarray(c.Y*ts, c.X*ts, (c.Y+1)*ts, (c.X+1)*ts)
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
func (p *Pyramid) NumLevels() int { return p.levels }

// TileSize returns the per-side cell count of every tile.
func (p *Pyramid) TileSize() int { return p.params.TileSize }

// Attrs returns the attribute names carried by every tile.
func (p *Pyramid) Attrs() []string { return append([]string(nil), p.attrs...) }

// Side returns the number of tiles per side at the given level (2^level).
func (p *Pyramid) Side(level int) int { return 1 << level }

// NumTiles returns the total number of materialized tiles.
func (p *Pyramid) NumTiles() int { return len(p.tiles) }

// Contains reports whether c addresses a tile inside the pyramid.
func (p *Pyramid) Contains(c Coord) bool {
	if c.Level < 0 || c.Level >= p.levels {
		return false
	}
	side := p.Side(c.Level)
	return c.Y >= 0 && c.Y < side && c.X >= 0 && c.X < side
}

// Tile returns the materialized tile at c.
func (p *Pyramid) Tile(c Coord) (*Tile, error) {
	if !p.Contains(c) {
		return nil, fmt.Errorf("tile: %s outside pyramid (%d levels)", c, p.levels)
	}
	return p.tiles[index(c)], nil
}

// EachTile calls fn for every materialized tile in deterministic order
// (level, then row-major), stopping early if fn returns false.
func (p *Pyramid) EachTile(fn func(*Tile) bool) {
	for _, t := range p.tiles {
		if !fn(t) {
			return
		}
	}
}

// MemBytes estimates the heap footprint of all materialized tiles.
func (p *Pyramid) MemBytes() int {
	total := 0
	for _, t := range p.tiles {
		total += t.Bytes()
	}
	return total
}

// ComputeMetadata (re)computes every tile's signature metadata with fn.
// It exists for two-pass pipelines where the metadata computer itself must
// first be trained on the pyramid's tiles (e.g. the SIFT visual-word
// codebook) before signatures can be attached. It is a build step: run it
// before the pyramid is shared, as nothing guards the tiles it writes.
func (p *Pyramid) ComputeMetadata(fn MetadataFunc) {
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
	stride := max(len(p.tiles)/n, 1)
	var out []*Tile
	for i := 0; i < len(p.tiles) && len(out) < n; i += stride {
		out = append(out, p.tiles[i])
	}
	return out
}
