package trace

import (
	"slices"
	"testing"
	"testing/quick"

	"forecache/internal/tile"
)

func TestMoveStringsRoundTrip(t *testing.T) {
	for _, m := range AllMoves() {
		got, err := ParseMove(m.String())
		if err != nil {
			t.Fatalf("ParseMove(%q): %v", m.String(), err)
		}
		if got != m {
			t.Errorf("round trip %v -> %q -> %v", m, m.String(), got)
		}
	}
	if _, err := ParseMove("sideways"); err == nil {
		t.Error("unknown move name should fail")
	}
}

func TestNineMoves(t *testing.T) {
	if len(AllMoves()) != NumMoves {
		t.Fatalf("AllMoves = %d, want %d", len(AllMoves()), NumMoves)
	}
	pans, ins, outs := 0, 0, 0
	for _, m := range AllMoves() {
		switch {
		case m.IsPan():
			pans++
		case m.IsZoomIn():
			ins++
		case m.IsZoomOut():
			outs++
		}
	}
	if pans != 4 || ins != 4 || outs != 1 {
		t.Errorf("move taxonomy: %d pans, %d zoom-ins, %d zoom-outs", pans, ins, outs)
	}
}

func TestApplyGeometry(t *testing.T) {
	c := tile.Coord{Level: 2, Y: 1, X: 1}
	cases := []struct {
		m    Move
		want tile.Coord
	}{
		{PanUp, tile.Coord{Level: 2, Y: 0, X: 1}},
		{PanDown, tile.Coord{Level: 2, Y: 2, X: 1}},
		{PanLeft, tile.Coord{Level: 2, Y: 1, X: 0}},
		{PanRight, tile.Coord{Level: 2, Y: 1, X: 2}},
		{ZoomOut, tile.Coord{Level: 1, Y: 0, X: 0}},
		{ZoomInNW, tile.Coord{Level: 3, Y: 2, X: 2}},
		{ZoomInSE, tile.Coord{Level: 3, Y: 3, X: 3}},
	}
	for _, tc := range cases {
		if got := Apply(c, tc.m); got != tc.want {
			t.Errorf("Apply(%v, %v) = %v, want %v", c, tc.m, got, tc.want)
		}
	}
}

func TestMoveBetweenInvertsApply(t *testing.T) {
	f := func(level uint8, y, x uint16, mRaw uint8) bool {
		l := int(level%5) + 1
		side := 1 << l
		c := tile.Coord{Level: l, Y: int(y) % side, X: int(x) % side}
		m := AllMoves()[int(mRaw)%NumMoves]
		to := Apply(c, m)
		got, ok := MoveBetween(c, to)
		return ok && got == m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestMoveBetweenRejectsJumps(t *testing.T) {
	from := tile.Coord{Level: 2, Y: 0, X: 0}
	to := tile.Coord{Level: 2, Y: 3, X: 3}
	if _, ok := MoveBetween(from, to); ok {
		t.Error("jump should not map to a move")
	}
	// Zoom-out at the root is degenerate.
	root := tile.Coord{Level: 0, Y: 0, X: 0}
	if _, ok := MoveBetween(root, root); ok {
		t.Error("root self-transition should not map to a move")
	}
}

func TestMoveCounts(t *testing.T) {
	tr := &Trace{Requests: []Request{
		{Move: None}, {Move: ZoomInNW}, {Move: ZoomInSE},
		{Move: PanLeft}, {Move: ZoomOut},
	}}
	pans, ins, outs := tr.MoveCounts()
	if pans != 1 || ins != 2 || outs != 1 {
		t.Errorf("counts = %d,%d,%d", pans, ins, outs)
	}
}

func TestHistoryWindow(t *testing.T) {
	h := NewHistory(3)
	if got := h.RecentMoves(nil, 10); len(got) != 0 {
		t.Errorf("empty history holds %v", got)
	}
	moves := []Move{PanRight, PanDown, ZoomInNW, ZoomOut, PanLeft}
	for i, mv := range moves {
		h.Push(Request{Coord: tile.Coord{Level: i}, Move: mv})
	}
	if got := h.RecentMoves(nil, 10); !slices.Equal(got, moves[2:]) {
		t.Errorf("window = %v, want the last 3 moves %v, oldest first", got, moves[2:])
	}
	h.Reset()
	if got := h.RecentMoves(nil, 10); len(got) != 0 {
		t.Errorf("Reset left %v", got)
	}
}

func TestHistoryRecentMoves(t *testing.T) {
	h := NewHistory(4)
	h.Push(Request{Move: None})
	h.Push(Request{Move: PanUp})
	h.Push(Request{Move: ZoomOut})
	for _, tc := range []struct {
		n    int
		want []Move
	}{
		{0, nil},
		{1, []Move{ZoomOut}},
		{2, []Move{PanUp, ZoomOut}},
		{3, []Move{PanUp, ZoomOut}}, // None is skipped, not counted
		{5, []Move{PanUp, ZoomOut}}, // the window is shorter than n
	} {
		if got := h.RecentMoves(nil, tc.n); !slices.Equal(got, tc.want) {
			t.Errorf("RecentMoves(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
	h.Push(Request{Move: ZoomInNE})
	h.Push(Request{Move: PanLeft}) // pushes None out of the window
	if got, want := h.RecentMoves([]Move{PanDown}, 3), []Move{PanDown, ZoomOut, ZoomInNE, PanLeft}; !slices.Equal(got, want) {
		t.Errorf("RecentMoves appended %v, want %v", got, want)
	}
	var buf [3]Move
	if n := testing.AllocsPerRun(10, func() { h.RecentMoves(buf[:0], 3) }); n != 0 {
		t.Errorf("RecentMoves into a buffer with room allocates %v times", n)
	}
}

func TestHistoryMinCapacity(t *testing.T) {
	h := NewHistory(0)
	h.Push(Request{Move: PanUp})
	h.Push(Request{Move: PanDown})
	if got := h.RecentMoves(nil, 10); !slices.Equal(got, []Move{PanDown}) {
		t.Errorf("window = %v, want capacity clamped to 1", got)
	}
}

// resetMove marks a TestHistoryROIAlgorithm1 step that calls Reset
// instead of Push.
const resetMove Move = -2

// TestHistoryROIAlgorithm1: Push keeps the region of interest of
// Algorithm 1 — the tiles from a zoom-in through the pans before the next
// zoom-out — whatever the window's size, and Reset clears it.
func TestHistoryROIAlgorithm1(t *testing.T) {
	a := tile.Coord{Level: 3, Y: 2, X: 2}
	b := a.Pan(0, 1)
	c := b.Pan(1, 0)
	d := tile.Coord{Level: 2, Y: 0, X: 0}
	in := func(c tile.Coord) Request { return Request{Coord: c, Move: ZoomInNW} }
	pan := func(c tile.Coord) Request { return Request{Coord: c, Move: PanRight} }
	out := func(c tile.Coord) Request { return Request{Coord: c.Parent(), Move: ZoomOut} }
	reset := Request{Move: resetMove}
	var row []tile.Coord // a zoom-in and five pans: longer than the window
	for x := range 6 {
		row = append(row, tile.Coord{Level: 3, Y: 1, X: x})
	}
	for _, tc := range []struct {
		name  string
		steps []Request
		want  []tile.Coord
	}{
		{"pending until the zoom-out", []Request{in(a), pan(b), pan(c)}, nil},
		{"zoom-out commits", []Request{in(a), pan(b), pan(c), out(c)}, []tile.Coord{a, b, c}},
		{"stray zoom-out keeps the ROI", []Request{in(a), pan(b), pan(c), out(c), out(c.Parent())}, []tile.Coord{a, b, c}},
		{"new zoom-in starts afresh", []Request{in(a), pan(b), out(b), in(d), out(d)}, []tile.Coord{d}},
		{"ROI longer than the window", []Request{in(row[0]), pan(row[1]), pan(row[2]), pan(row[3]), pan(row[4]), pan(row[5]), out(row[5])}, row},
		{"Reset clears a completed ROI", []Request{in(a), pan(b), out(b), reset}, nil},
		{"Reset clears a pending ROI", []Request{in(a), pan(b), reset, out(b)}, nil},
	} {
		h := NewHistory(3)
		for _, r := range tc.steps {
			if r.Move == resetMove {
				h.Reset()
			} else {
				h.Push(r)
			}
		}
		if got := h.ROI(); !slices.Equal(got, tc.want) {
			t.Errorf("%s: ROI = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestHistoryROIKeepsTheLastMaxROI: an ROI of one zoom-in, 999 pans and a
// zoom-out keeps only the last maxROI (64) tiles visited, in visit order.
func TestHistoryROIKeepsTheLastMaxROI(t *testing.T) {
	h := NewHistory(3)
	var visited []tile.Coord
	for i := range 1000 {
		c := tile.Coord{Level: 10, Y: i / 1024, X: i % 1024}
		move := PanRight
		if i == 0 {
			move = ZoomInNW
		}
		h.Push(Request{Coord: c, Move: move})
		visited = append(visited, c)
	}
	h.Push(Request{Coord: tile.Coord{Level: 9}, Move: ZoomOut})
	if got, want := h.ROI(), visited[len(visited)-64:]; !slices.Equal(got, want) {
		t.Errorf("ROI has %d tiles %v…, want the last 64 visited %v…", len(got), got[:min(len(got), 2)], want[:2])
	}
}

// TestHistoryPushDoesNotAllocate: a full window shifts in place, and the
// ROI reuses its buffers, so a steady session's pushes allocate nothing.
func TestHistoryPushDoesNotAllocate(t *testing.T) {
	h := NewHistory(3)
	steady := []Request{{Move: None}, {Move: PanUp}, {Move: PanLeft}, {Move: ZoomOut}}
	if n := testing.AllocsPerRun(100, func() {
		for i := range 10 {
			h.Push(steady[i%len(steady)])
		}
	}); n != 0 {
		t.Errorf("10 pushes with no zoom-in pending allocate %v times, want 0", n)
	}
	zooms := []Request{{Move: ZoomInNW}, {Move: PanUp}, {Move: PanLeft}, {Move: ZoomOut}}
	if n := testing.AllocsPerRun(100, func() {
		for _, r := range zooms {
			h.Push(r)
		}
	}); n != 0 {
		t.Errorf("a zoom-in, two pans and a zoom-out allocate %v times, want 0", n)
	}
}

func TestPhaseStrings(t *testing.T) {
	if Foraging.String() != "Foraging" || Navigation.String() != "Navigation" ||
		Sensemaking.String() != "Sensemaking" || PhaseUnknown.String() != "Unknown" {
		t.Error("phase names wrong")
	}
	if len(AllPhases()) != 3 {
		t.Error("AllPhases should list the three real phases")
	}
}

func TestTraceSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	traces := []*Trace{
		{User: 1, Task: 1, Requests: []Request{
			{Coord: tile.Coord{Level: 0}, Move: None, Phase: Foraging},
			{Coord: tile.Coord{Level: 1, Y: 1, X: 0}, Move: ZoomInSW, Phase: Navigation},
		}},
		{User: 2, Task: 3, Requests: []Request{
			{Coord: tile.Coord{Level: 0}, Move: None, Phase: Foraging},
		}},
	}
	if err := SaveDir(dir, traces); err != nil {
		t.Fatalf("SaveDir: %v", err)
	}
	got, err := LoadDir(dir)
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	if len(got) != 2 {
		t.Fatalf("loaded %d traces", len(got))
	}
	if got[0].User != 1 || got[0].Requests[1].Move != ZoomInSW || got[0].Requests[1].Phase != Navigation {
		t.Errorf("round trip = %+v", got[0])
	}
	if _, err := LoadFile(dir + "/nope.json"); err == nil {
		t.Error("missing file should fail")
	}
}
