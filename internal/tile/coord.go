// Package tile implements ForeCache's tile data model: zoom levels built as
// materialized aggregations of a raw array, partitioned into fixed-size data
// tiles, with per-tile metadata computed at build time (paper §2).
//
// Zoom level 0 is the coarsest view (a single tile); each tile at level i
// covers exactly four tiles at level i+1, because aggregation intervals are
// doubled for each coarser level while the tiling intervals stay fixed
// (paper §2.3). All tiles therefore have identical pixel dimensions
// regardless of level.
package tile

import "fmt"

// Quadrant identifies one of the four children of a tile, i.e. the quadrant
// the user clicks when zooming in.
type Quadrant int

// The four zoom-in quadrants.
const (
	NW Quadrant = iota // north-west: top-left
	NE                 // north-east: top-right
	SW                 // south-west: bottom-left
	SE                 // south-east: bottom-right
)

// String returns the compass name of the quadrant.
func (q Quadrant) String() string {
	switch q {
	case NW:
		return "NW"
	case NE:
		return "NE"
	case SW:
		return "SW"
	case SE:
		return "SE"
	}
	return fmt.Sprintf("Quadrant(%d)", int(q))
}

// Offsets returns the (row, col) child offsets of the quadrant, each 0 or 1.
func (q Quadrant) Offsets() (dy, dx int) {
	switch q {
	case NW:
		return 0, 0
	case NE:
		return 0, 1
	case SW:
		return 1, 0
	default:
		return 1, 1
	}
}

// Coord addresses one data tile: zoom level (0 = coarsest) and the tile's
// integer position within that level's grid, row-major from the top-left.
type Coord struct {
	Level int `json:"level"`
	Y     int `json:"y"`
	X     int `json:"x"`
}

// String renders the coordinate as "L{level}/{y}/{x}".
func (c Coord) String() string { return fmt.Sprintf("L%d/%d/%d", c.Level, c.Y, c.X) }

// Less orders coordinates by (level, y, x): the deterministic tiebreak used
// wherever equal-scored tiles must sort stably.
func (c Coord) Less(o Coord) bool {
	if c.Level != o.Level {
		return c.Level < o.Level
	}
	if c.Y != o.Y {
		return c.Y < o.Y
	}
	return c.X < o.X
}

// Pan returns the coordinate dy rows down and dx columns right at the same
// zoom level. Callers validate bounds against a Pyramid.
func (c Coord) Pan(dy, dx int) Coord { return Coord{Level: c.Level, Y: c.Y + dy, X: c.X + dx} }

// Child returns the coordinate of the quadrant child one level deeper.
func (c Coord) Child(q Quadrant) Coord {
	dy, dx := q.Offsets()
	return Coord{Level: c.Level + 1, Y: 2*c.Y + dy, X: 2*c.X + dx}
}

// Parent returns the coordinate one zoom level coarser. The parent of the
// root is the root itself.
func (c Coord) Parent() Coord {
	if c.Level == 0 {
		return c
	}
	return Coord{Level: c.Level - 1, Y: c.Y / 2, X: c.X / 2}
}

// ManhattanTo returns the physical tile distance used by the signature
// recommender's distance penalty (Algorithm 3): the lateral Manhattan
// distance after projecting both coordinates to the deeper level, plus one
// step per zoom-level difference — a zoom is one interface move, so a
// child tile is *not* at distance zero from its parent.
func (c Coord) ManhattanTo(o Coord) int {
	a, b := c, o
	levelDiff := abs(a.Level - b.Level)
	for a.Level < b.Level {
		a = Coord{Level: a.Level + 1, Y: a.Y * 2, X: a.X * 2}
	}
	for b.Level < a.Level {
		b = Coord{Level: b.Level + 1, Y: b.Y * 2, X: b.X * 2}
	}
	return levelDiff + abs(a.Y-b.Y) + abs(a.X-b.X)
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
