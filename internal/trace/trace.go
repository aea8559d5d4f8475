// Package trace defines ForeCache's interaction model: the moves a user can
// make in the browsing interface, tile requests, session histories, and
// recorded user traces (paper §1.1, §4.1).
//
// The interface supports exactly nine moves (paper §5.2.2): panning in four
// directions, zooming out, and zooming into one of the four quadrants of
// the current tile. Each move is an incremental change from the current
// tile — there is no "jumping" (paper §2.2).
package trace

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"forecache/internal/tile"
)

// Move is one interface action.
type Move int

// The nine interface moves, plus None for a session's first request.
const (
	None Move = iota - 1 // session start; not a real move
	PanUp
	PanDown
	PanLeft
	PanRight
	ZoomOut
	ZoomInNW
	ZoomInNE
	ZoomInSW
	ZoomInSE
)

// NumMoves is the size of the real move alphabet (excluding None).
const NumMoves = 9

// AllMoves returns the nine real moves in canonical order.
func AllMoves() []Move {
	return []Move{PanUp, PanDown, PanLeft, PanRight, ZoomOut, ZoomInNW, ZoomInNE, ZoomInSW, ZoomInSE}
}

var moveNames = map[Move]string{
	None: "none", PanUp: "up", PanDown: "down", PanLeft: "left", PanRight: "right",
	ZoomOut: "out", ZoomInNW: "in-nw", ZoomInNE: "in-ne", ZoomInSW: "in-sw", ZoomInSE: "in-se",
}

// String returns the move's wire name.
func (m Move) String() string {
	if s, ok := moveNames[m]; ok {
		return s
	}
	return fmt.Sprintf("Move(%d)", int(m))
}

// ParseMove inverts String.
func ParseMove(s string) (Move, error) {
	for m, name := range moveNames {
		if name == s {
			return m, nil
		}
	}
	return None, fmt.Errorf("trace: unknown move %q", s)
}

// IsPan reports whether the move is one of the four pans.
func (m Move) IsPan() bool { return m >= PanUp && m <= PanRight }

// IsZoomIn reports whether the move zooms into a quadrant.
func (m Move) IsZoomIn() bool { return m >= ZoomInNW && m <= ZoomInSE }

// IsZoomOut reports whether the move zooms out one level.
func (m Move) IsZoomOut() bool { return m == ZoomOut }

// Quadrant returns the zoom-in quadrant of the move; it panics for
// non-zoom-in moves (guard with IsZoomIn).
func (m Move) Quadrant() tile.Quadrant {
	switch m {
	case ZoomInNW:
		return tile.NW
	case ZoomInNE:
		return tile.NE
	case ZoomInSW:
		return tile.SW
	case ZoomInSE:
		return tile.SE
	}
	panic(fmt.Sprintf("trace: %v is not a zoom-in move", m))
}

// Apply returns the coordinate reached by taking the move from c, without
// bounds checking (use tile.Pyramid.Contains to validate).
func Apply(c tile.Coord, m Move) tile.Coord {
	switch m {
	case PanUp:
		return c.Pan(-1, 0)
	case PanDown:
		return c.Pan(1, 0)
	case PanLeft:
		return c.Pan(0, -1)
	case PanRight:
		return c.Pan(0, 1)
	case ZoomOut:
		return c.Parent()
	case ZoomInNW, ZoomInNE, ZoomInSW, ZoomInSE:
		return c.Child(m.Quadrant())
	}
	return c
}

// MoveBetween infers the move that leads from one coordinate to the other,
// returning ok=false when the step is not a single legal move.
func MoveBetween(from, to tile.Coord) (Move, bool) {
	for _, m := range AllMoves() {
		if Apply(from, m) == to {
			// Zooming out of the root maps to the root itself; reject the
			// degenerate self-transition.
			if m == ZoomOut && from.Level == 0 {
				continue
			}
			return m, true
		}
	}
	return None, false
}

// Request is one tile request: the tile retrieved and the move that
// produced it (None for the first request of a session).
type Request struct {
	Coord tile.Coord `json:"coord"`
	Move  Move       `json:"move"`
	// Phase is the ground-truth analysis phase label when known (attached
	// by the study simulator or by hand labeling); PhaseUnknown otherwise.
	Phase Phase `json:"phase"`
}

// Phase is the user's analysis phase at the time of a request (paper
// §4.2.1). It lives here, next to Request, because labeled requests are
// part of the trace data model; the phase package holds the classifier.
type Phase int

// The three analysis phases plus an unknown marker.
const (
	PhaseUnknown Phase = iota
	Foraging
	Navigation
	Sensemaking
)

// AllPhases returns the three real phases in canonical order.
func AllPhases() []Phase { return []Phase{Foraging, Navigation, Sensemaking} }

// String returns the phase name.
func (p Phase) String() string {
	switch p {
	case Foraging:
		return "Foraging"
	case Navigation:
		return "Navigation"
	case Sensemaking:
		return "Sensemaking"
	case PhaseUnknown:
		return "Unknown"
	}
	return fmt.Sprintf("Phase(%d)", int(p))
}

// ParsePhase inverts Phase.String; snapshot restore uses it to key
// persisted per-phase tables by name instead of by raw integer.
func ParsePhase(s string) (Phase, error) {
	for _, p := range []Phase{PhaseUnknown, Foraging, Navigation, Sensemaking} {
		if p.String() == s {
			return p, nil
		}
	}
	return PhaseUnknown, fmt.Errorf("trace: unknown phase %q", s)
}

// Trace is one recorded user session: an ordered list of tile requests for
// a single user completing a single task (paper §4.1's U_j).
type Trace struct {
	User     int       `json:"user"`
	Task     int       `json:"task"`
	Requests []Request `json:"requests"`
}

// MoveCounts tallies pans, zoom-ins and zoom-outs, the quantities behind
// the paper's Figure 8 move-distribution plots.
func (t *Trace) MoveCounts() (pans, zoomIns, zoomOuts int) {
	for _, r := range t.Requests {
		switch {
		case r.Move.IsPan():
			pans++
		case r.Move.IsZoomIn():
			zoomIns++
		case r.Move.IsZoomOut():
			zoomOuts++
		}
	}
	return pans, zoomIns, zoomOuts
}

// History is the sliding window of the user's last n requests, maintained
// by the cache manager and consumed by the prediction engine (paper §4.1),
// plus the session's region of interest (Algorithm 1), which SB ranks
// against: an ROI is the set of tiles visited between a zoom-in and the
// following zoom-out (one zoom-in, zero or more pans, one zoom-out).
type History struct {
	reqs []Request // cap(reqs) is the window n
	// Algorithm 1's state: inROI is set from a zoom-in to the next
	// zoom-out, temp collects the tiles visited meanwhile and roi is the
	// last completed ROI. Committing swaps the two backings, so a session
	// reuses them instead of allocating an ROI per zoom.
	inROI     bool
	temp, roi []tile.Coord
}

// maxROI bounds a region of interest to the most recent tiles visited in
// it. SB ranks every candidate against every ROI tile, so an analyst who
// pans at one zoom level for a long time would otherwise make each
// prediction slower without bound. The study's longest ROI is 21 tiles.
const maxROI = 64

// NewHistory returns a history window holding the last n requests.
func NewHistory(n int) *History {
	return &History{reqs: make([]Request, 0, max(n, 1))}
}

// Push appends a request, evicting the oldest past capacity. The ROI
// advances first, from the request alone, so an ROI longer than the window
// is kept whole up to maxROI tiles, its most recent ones. Once the window
// is full the entries shift in place: a steady session allocates nothing
// here.
func (h *History) Push(r Request) {
	switch {
	case r.Move.IsZoomIn():
		h.inROI = true
		h.temp = append(h.temp[:0], r.Coord)
	case r.Move.IsZoomOut():
		if h.inROI {
			h.roi, h.temp = h.temp, h.roi[:0]
			h.inROI = false
		}
	case h.inROI:
		if len(h.temp) == maxROI {
			h.temp = append(h.temp[:0], h.temp[1:]...)
		}
		h.temp = append(h.temp, r.Coord)
	}
	if n := len(h.reqs); n > 0 && n == cap(h.reqs) {
		h.reqs = append(h.reqs[:0], h.reqs[1:]...)
	}
	h.reqs = append(h.reqs, r)
}

// ROI returns the last completed region of interest in visit order, empty
// before the session's first zoom-in/zoom-out pair. It is valid until the
// next Push or Reset.
func (h *History) ROI() []tile.Coord { return h.roi }

// RecentMoves appends the retained moves to dst, oldest first, excluding
// None and keeping only the n most recent. It allocates only when dst is
// too short.
func (h *History) RecentMoves(dst []Move, n int) []Move {
	i := len(h.reqs)
	for kept := 0; i > 0 && kept < n; i-- {
		if h.reqs[i-1].Move != None {
			kept++
		}
	}
	for _, r := range h.reqs[i:] {
		if r.Move != None {
			dst = append(dst, r.Move)
		}
	}
	return dst
}

// Reset clears the window and the ROI.
func (h *History) Reset() {
	h.reqs, h.temp, h.roi, h.inROI = h.reqs[:0], h.temp[:0], h.roi[:0], false
}

// SaveFile writes the trace as JSON.
func (t *Trace) SaveFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(t, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// LoadFile reads a trace written by SaveFile.
func LoadFile(path string) (*Trace, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var t Trace
	if err := json.Unmarshal(b, &t); err != nil {
		return nil, fmt.Errorf("trace: decode %s: %w", path, err)
	}
	return &t, nil
}

// SaveDir writes each trace as "u<user>_t<task>.json" under dir.
func SaveDir(dir string, traces []*Trace) error {
	for _, t := range traces {
		path := filepath.Join(dir, fmt.Sprintf("u%02d_t%d.json", t.User, t.Task))
		if err := t.SaveFile(path); err != nil {
			return err
		}
	}
	return nil
}

// LoadDir reads every "*.json" trace under dir, sorted by filename.
func LoadDir(dir string) ([]*Trace, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(matches)
	var out []*Trace
	for _, path := range matches {
		t, err := LoadFile(path)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}
