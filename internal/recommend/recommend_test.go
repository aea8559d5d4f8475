package recommend

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
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
	if ab.Name() != "markov3" {
		t.Errorf("Name = %s, want markov3", ab.Name())
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
	h := trace.NewHistory(3)
	h.Push(trace.Request{Coord: cur, Move: trace.ZoomInNW})
	h.Push(trace.Request{Coord: cur.Parent(), Move: trace.ZoomOut})
	req := trace.Request{Coord: cur, Move: trace.PanUp}
	cands := []Candidate{
		{Coord: right, Moves: []trace.Move{trace.PanRight}},
		{Coord: left, Moves: []trace.Move{trace.PanLeft}},
	}
	ranked := sb.Predict(req, cands, h)
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
	h := trace.NewHistory(3)
	h.Push(trace.Request{Coord: cur, Move: trace.ZoomInNW})
	h.Push(trace.Request{Coord: cur.Parent(), Move: trace.ZoomOut})
	req := trace.Request{Coord: cur, Move: trace.PanUp}
	cands := []Candidate{
		{Coord: near, Moves: []trace.Move{trace.PanRight}},
		{Coord: far, Moves: []trace.Move{trace.PanRight, trace.PanRight}},
	}
	ranked := sb.Predict(req, cands, h)
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
	// An empty history: no ROI yet.
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

// TestSBSharedBySessions is the -race check of the shared SB: sessions
// with different regions of interest rank concurrently on one instance,
// and each gets the ranking it gets alone.
func TestSBSharedBySessions(t *testing.T) {
	src := &fakeSource{sigs: map[tile.Coord]map[string][]float64{}}
	for y := range 4 {
		for x := range 4 {
			src.sigs[tile.Coord{Level: 2, Y: y, X: x}] = map[string][]float64{sig.NameHistogram: {float64(1 + y), float64(1 + x), 1}}
		}
	}
	sb := NewSB(src, WithSignatures(sig.NameHistogram))
	cur := tile.Coord{Level: 2, Y: 1, X: 1}
	cands := Candidates(gridBounds{maxLevel: 2}, cur, 1)
	rank := func(g int) []Ranked {
		h := trace.NewHistory(3)
		roi := tile.Coord{Level: 2, Y: g / 4, X: g % 4}
		h.Push(trace.Request{Coord: roi, Move: trace.ZoomInNW})
		h.Push(trace.Request{Coord: roi.Parent(), Move: trace.ZoomOut})
		return sb.Predict(trace.Request{Coord: cur, Move: trace.PanUp}, cands, h)
	}
	const sessions = 16
	var alone [sessions][]Ranked
	for g := range sessions {
		alone[g] = rank(g)
	}
	var wg sync.WaitGroup
	for g := range sessions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 20 {
				if got := rank(g); !slices.Equal(got, alone[g]) {
					t.Errorf("session %d ranked %v beside the others, %v alone", g, got, alone[g])
					return
				}
			}
		}()
	}
	wg.Wait()
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

// randomWalks returns n seeded traces of steps random legal moves each
// inside b, starting at the root.
func randomWalks(b gridBounds, n, steps int, seed int64) []*trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	var out []*trace.Trace
	for i := range n {
		tr := &trace.Trace{User: i}
		c := tile.Coord{}
		tr.Requests = append(tr.Requests, trace.Request{Coord: c, Move: trace.None})
		for range steps {
			cands := Candidates(b, c, 1)
			next := cands[rng.Intn(len(cands))]
			c = next.Coord
			tr.Requests = append(tr.Requests, trace.Request{Coord: c, Move: next.Moves[0]})
		}
		out = append(out, tr)
	}
	return out
}

// TestABConcurrentTable: eight goroutines rank the candidates at d = 1 and
// d = 2 for every history of at most three moves against one shared AB,
// each in its own order; every score must equal the product of the
// unmemoized probabilities on an untouched twin.
func TestABConcurrentTable(t *testing.T) {
	b := gridBounds{maxLevel: 6}
	traces := randomWalks(b, 20, 60, 1)
	shared, err := NewAB(3, traces)
	if err != nil {
		t.Fatal(err)
	}
	twin, err := NewAB(3, traces)
	if err != nil {
		t.Fatal(err)
	}
	cur := tile.Coord{Level: 3, Y: 3, X: 4}
	candSets := [][]Candidate{Candidates(b, cur, 1), Candidates(b, cur, 2)}

	type input struct {
		hist  *trace.History
		cands []Candidate
		want  map[tile.Coord]float64
	}
	hists := [][]trace.Move{nil}
	var in []input
	for i := 0; i < len(hists); i++ {
		moves := hists[i]
		if len(moves) < 3 {
			for _, mv := range trace.AllMoves() {
				hists = append(hists, append(slices.Clone(moves), mv))
			}
		}
		h := trace.NewHistory(3)
		h.Push(trace.Request{Move: trace.None})
		for _, mv := range moves {
			h.Push(trace.Request{Move: mv})
		}
		for _, cands := range candSets {
			want := make(map[tile.Coord]float64, len(cands))
			for _, c := range cands {
				var ctx uint64
				for _, mv := range moves {
					ctx = twin.push(ctx, mv)
				}
				p := 1.0
				for _, mv := range c.Moves {
					p *= twin.prob(ctx, mv)
					ctx = twin.push(ctx, mv)
				}
				want[c.Coord] = p
			}
			in = append(in, input{hist: h, cands: cands, want: want})
		}
	}

	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, i := range rand.New(rand.NewSource(int64(g))).Perm(len(in)) {
				x := in[i]
				for _, r := range shared.Predict(trace.Request{Coord: cur}, x.cands, x.hist) {
					if w := x.want[r.Coord]; math.Float64bits(r.Score) != math.Float64bits(w) {
						t.Errorf("goroutine %d: history %v scores %v at %v, twin computes %v", g, x.hist.RecentMoves(nil, 3), r.Score, r.Coord, w)
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestABOrderBounds: a context of up to 15 moves packs beside the next move
// in one key; longer orders are refused at construction.
func TestABOrderBounds(t *testing.T) {
	b := gridBounds{maxLevel: 6}
	traces := randomWalks(b, 4, 40, 2)
	for _, order := range []int{-1, 0, 16} {
		if _, err := NewAB(order, traces); err == nil {
			t.Errorf("NewAB(%d) should fail", order)
		}
	}
	ab, err := NewAB(15, traces)
	if err != nil {
		t.Fatal(err)
	}
	h := trace.NewHistory(20)
	var ctx uint64
	for _, r := range traces[0].Requests[1:] {
		h.Push(r)
		ctx = ab.push(ctx, r.Move)
	}
	cur := traces[0].Requests[len(traces[0].Requests)-1].Coord
	for _, r := range ab.Predict(trace.Request{Coord: cur}, Candidates(b, cur, 1), h) {
		mv, _ := trace.MoveBetween(cur, r.Coord)
		if want := ab.prob(ctx, mv); r.Score != want {
			t.Errorf("order 15 scores %v at %v, unmemoized %v", r.Score, r.Coord, want)
		}
	}
}
