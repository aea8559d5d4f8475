package tile

import (
	"fmt"
	"math"
)

// Grid is a raw two-dimensional dataset: one row-major Rows x Cols plane
// per attribute, Data[attr][row*Cols+col], NaN marking an empty cell.
type Grid struct {
	Rows, Cols int
	Attrs      []string
	Data       [][]float64
}

// MetadataFunc computes the signature metadata for a built tile. The sig
// package supplies implementations; keeping it a function type here avoids
// a dependency cycle.
type MetadataFunc func(*Tile) map[string][]float64

// Pyramid is the complete set of zoom levels for one dataset, with every
// data tile materialized (the paper builds all tiles in advance and stores
// them in SciDB). It holds the tiles and nothing else: each cell once, in
// its tile. The pyramid is immutable once built, so reads take no lock.
type Pyramid struct {
	tileSize int
	attrs    []string
	levels   int
	tiles    []*Tile // EachTile order; see Index
}

// Build constructs a pyramid of tileSize x tileSize tiles over the raw grid
// (paper §2.3). The raw data becomes the most detailed zoom level, padded
// with empty cells to the next power-of-two multiple of tileSize so every
// level tiles exactly; each coarser level is the materialized view a
// regrid with aggregation parameters (2, 2) builds from the finer one. The
// levels are build-time only: every tile copies its cells out, and the
// pyramid keeps neither them nor raw.
func Build(raw *Grid, tileSize int) (*Pyramid, error) {
	if tileSize <= 0 {
		return nil, fmt.Errorf("tile: TileSize must be positive, got %d", tileSize)
	}
	if err := raw.check(); err != nil {
		return nil, err
	}
	// levels = 1 + ceil(log2(max(Rows, Cols) / tileSize)), at least 1.
	levels := 1
	for size := tileSize; size < max(raw.Rows, raw.Cols); size *= 2 {
		levels++
	}
	pyr := &Pyramid{
		tileSize: tileSize,
		attrs:    append([]string(nil), raw.Attrs...),
		levels:   levels,
		tiles:    make([]*Tile, Index(Coord{Level: levels})), // every level's tiles
	}
	// Finest level first; each level's planes die once the next is built.
	planes := raw.pad(tileSize << (levels - 1))
	for l := levels - 1; l > 0; l-- {
		pyr.cut(l, planes)
		planes = halve(planes, tileSize<<l)
	}
	pyr.cut(0, planes)
	return pyr, nil
}

// check rejects a grid Build cannot tile: no cells or attributes, or a
// plane per attribute that is not Rows x Cols.
func (g *Grid) check() error {
	if g == nil || g.Rows <= 0 || g.Cols <= 0 || g.Rows > math.MaxInt/g.Cols || len(g.Attrs) == 0 {
		return fmt.Errorf("tile: empty or oversized grid")
	}
	if len(g.Data) != len(g.Attrs) {
		return fmt.Errorf("tile: grid has %d planes for %d attributes", len(g.Data), len(g.Attrs))
	}
	for i, plane := range g.Data {
		if len(plane) != g.Rows*g.Cols {
			return fmt.Errorf("tile: plane %q has %d cells, want %d x %d", g.Attrs[i], len(plane), g.Rows, g.Cols)
		}
	}
	return nil
}

// pad returns g's planes at side x side. Planes already that size are
// returned as they are; others are copied into planes of empty cells.
func (g *Grid) pad(side int) [][]float64 {
	if g.Rows == side && g.Cols == side {
		return g.Data
	}
	out := make([][]float64, len(g.Data))
	for i, src := range g.Data {
		dst := make([]float64, side*side)
		for j := range dst {
			dst[j] = math.NaN()
		}
		for r := range g.Rows {
			copy(dst[r*side:], src[r*g.Cols:(r+1)*g.Cols])
		}
		out[i] = dst
	}
	return out
}

// halve regrids side x side planes with (2, 2) windows (paper Figure 3):
// each cell of the result is the mean of its window, read row by row.
func halve(planes [][]float64, side int) [][]float64 {
	half := side / 2
	out := make([][]float64, len(planes))
	for i, src := range planes {
		dst := make([]float64, half*half)
		for r := range half {
			top, bot := src[2*r*side:], src[(2*r+1)*side:]
			for c := range half {
				dst[r*half+c] = mean([4]float64{top[2*c], top[2*c+1], bot[2*c], bot[2*c+1]})
			}
		}
		out[i] = dst
	}
	return out
}

// mean is the mean of w's non-empty cells, summed in order, or NaN if w
// has none.
func mean(w [4]float64) float64 {
	sum, n := 0.0, 0
	for _, v := range w {
		if !math.IsNaN(v) {
			sum += v
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// Index is c's flat position among a pyramid's tiles in EachTile order:
// after the (4^l - 1) / 3 tiles of the coarser levels, row-major within its
// own level. Index(Coord{Level: n}) is the tile count of n levels. c must
// address a tile (see Pyramid.Contains).
func Index(c Coord) int {
	return (1<<(2*c.Level)-1)/3 + c.Y<<c.Level + c.X
}

// cut copies level l's tiles out of its planes, each tileSize << l a side.
func (p *Pyramid) cut(l int, planes [][]float64) {
	ts, side := p.tileSize, p.tileSize<<l
	for y := range 1 << l {
		for x := range 1 << l {
			t := &Tile{Coord: Coord{Level: l, Y: y, X: x}, Size: ts, Attrs: p.attrs, Data: make([][]float64, len(planes))}
			for i, src := range planes {
				g := make([]float64, ts*ts)
				for r := range ts {
					copy(g[r*ts:(r+1)*ts], src[(y*ts+r)*side+x*ts:])
				}
				t.Data[i] = g
			}
			p.tiles[Index(t.Coord)] = t
		}
	}
}

// NumLevels returns the number of zoom levels.
func (p *Pyramid) NumLevels() int { return p.levels }

// TileSize returns the per-side cell count of every tile.
func (p *Pyramid) TileSize() int { return p.tileSize }

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
	return p.tiles[Index(c)], nil
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
// It runs after Build because the metadata computer may first have to be
// trained on the pyramid's own tiles (e.g. the SIFT visual-word codebook).
// It is a build step: run it before the pyramid is shared, as nothing
// guards the tiles it writes.
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
