package tile

import (
	"encoding/json"
	"math"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
	"weak"
)

// rawGrid is a size x size grid of one attribute, v, whose cells count up
// from 0 in row-major order.

// cell reads attr at (row, col) of tl's row-major grid.
func cell(t *testing.T, tl *Tile, attr string, row, col int) float64 {
	t.Helper()
	g, err := tl.Grid(attr)
	if err != nil {
		t.Fatal(err)
	}
	if row < 0 || row >= tl.Size || col < 0 || col >= tl.Size {
		t.Fatalf("tile %s: cell (%d,%d) outside %dx%d", tl.Coord, row, col, tl.Size, tl.Size)
	}
	return g[row*tl.Size+col]
}
func rawGrid(size int) *Grid {
	data := make([]float64, size*size)
	for i := range data {
		data[i] = float64(i)
	}
	return &Grid{Rows: size, Cols: size, Attrs: []string{"v"}, Data: [][]float64{data}}
}

func TestCoordChildren(t *testing.T) {
	c := Coord{Level: 2, Y: 1, X: 2}
	cases := []struct {
		q    Quadrant
		want Coord
	}{
		{NW, Coord{3, 2, 4}},
		{NE, Coord{3, 2, 5}},
		{SW, Coord{3, 3, 4}},
		{SE, Coord{3, 3, 5}},
	}
	for _, tc := range cases {
		if got := c.Child(tc.q); got != tc.want {
			t.Errorf("Child(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
}

func TestCoordParentChildRoundTrip(t *testing.T) {
	f := func(level uint8, y, x uint16, q uint8) bool {
		l := int(level%8) + 1
		side := 1 << l
		c := Coord{Level: l, Y: int(y) % side, X: int(x) % side}
		child := c.Child(Quadrant(q % 4))
		return child.Parent() == c
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestCoordParentOfRoot(t *testing.T) {
	root := Coord{Level: 0, Y: 0, X: 0}
	if root.Parent() != root {
		t.Errorf("Parent of root = %v", root.Parent())
	}
}

func TestManhattanTo(t *testing.T) {
	a := Coord{Level: 2, Y: 1, X: 1}
	b := Coord{Level: 2, Y: 3, X: 0}
	if d := a.ManhattanTo(b); d != 3 {
		t.Errorf("ManhattanTo = %d, want 3", d)
	}
	// Cross-level: one step per level difference plus the lateral distance
	// after projecting to the deeper level.
	p := Coord{Level: 1, Y: 0, X: 0}
	c := Coord{Level: 2, Y: 0, X: 1}
	if d := p.ManhattanTo(c); d != 2 {
		t.Errorf("cross-level ManhattanTo = %d, want 2 (1 zoom + 1 lateral)", d)
	}
	// A child in the projected corner is exactly one move (the zoom) away.
	if d := p.ManhattanTo(Coord{Level: 2, Y: 0, X: 0}); d != 1 {
		t.Errorf("parent-child ManhattanTo = %d, want 1", d)
	}
	if a.ManhattanTo(b) != b.ManhattanTo(a) {
		t.Error("ManhattanTo must be symmetric")
	}
}

func TestBuildLevelsAndTileCounts(t *testing.T) {
	// 64x64 raw with tile size 16 -> levels: 16(=L0),32,64 => 3 levels.
	pyr, err := Build(rawGrid(64), 16)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if pyr.NumLevels() != 3 {
		t.Fatalf("NumLevels = %d, want 3", pyr.NumLevels())
	}
	if pyr.NumTiles() != 1+4+16 {
		t.Errorf("NumTiles = %d, want 21", pyr.NumTiles())
	}
	for l := 0; l < 3; l++ {
		if pyr.Side(l) != 1<<l {
			t.Errorf("Side(%d) = %d", l, pyr.Side(l))
		}
	}
}

// fourAttrGrid is an unpadded size x size raw grid with four attributes,
// the shape of the NDSI world.
func fourAttrGrid(size int) *Grid {
	g := &Grid{Rows: size, Cols: size, Attrs: []string{"a", "b", "c", "d"}}
	for range g.Attrs {
		data := make([]float64, size*size)
		for i := range data {
			data[i] = float64(i % 251)
		}
		g.Data = append(g.Data, data)
	}
	return g
}

func TestBuildRetainsOnlyTiles(t *testing.T) {
	// The raw grid's planes are the base level as they are, so they outlive
	// Build only if the pyramid keeps a level; the retained heap is then
	// the tiles.
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	raw := fourAttrGrid(256)
	ref := weak.Make(raw)
	pyr, err := Build(raw, 16)
	if err != nil {
		t.Fatal(err)
	}
	raw = nil
	runtime.GC()
	runtime.ReadMemStats(&after)
	if ref.Value() != nil {
		t.Error("the raw grid is still reachable after Build")
	}
	retained := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if limit := int64(pyr.MemBytes()) * 5 / 4; retained > limit {
		t.Errorf("Build retained %d bytes, want <= %d (1.25 x %d bytes of tiles)", retained, limit, pyr.MemBytes())
	}
	runtime.KeepAlive(pyr)
}

func TestBuildPadsNonPow2(t *testing.T) {
	pyr, err := Build(rawGrid(48), 16)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	// 48 pads to 64 -> 3 levels; border tiles carry NaN padding.
	if pyr.NumLevels() != 3 {
		t.Fatalf("NumLevels = %d, want 3", pyr.NumLevels())
	}
	edge, err := pyr.Tile(Coord{Level: 2, Y: 3, X: 3})
	if err != nil {
		t.Fatal(err)
	}
	if v := cell(t, edge, "v", 15, 15); !math.IsNaN(v) {
		t.Errorf("padded cell = %v, want NaN", v)
	}
}

// TestBuildClipsAndPads: tiles over the edge of a 5x3 grid keep its cells
// where they are and pad the rest of the 8x8 cover with empty cells, which
// the coarser levels skip.
func TestBuildClipsAndPads(t *testing.T) {
	const rows, cols = 5, 3
	g := &Grid{Rows: rows, Cols: cols, Attrs: []string{"v"}, Data: [][]float64{make([]float64, rows*cols)}}
	for i := range g.Data[0] {
		g.Data[0][i] = float64(i)
	}
	pyr, err := Build(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if pyr.NumLevels() != 3 {
		t.Fatalf("levels = %d, want 3 (5 pads to 8 = 2 << 2)", pyr.NumLevels())
	}
	for r := range 8 {
		for c := range 8 {
			tl, _ := pyr.Tile(Coord{Level: 2, Y: r / 2, X: c / 2})
			v := cell(t, tl, "v", r%2, c%2)
			if r < rows && c < cols {
				if v != float64(r*cols+c) {
					t.Errorf("cell (%d,%d) = %v, want %d", r, c, v, r*cols+c)
				}
			} else if !math.IsNaN(v) {
				t.Errorf("padding cell (%d,%d) = %v, want NaN", r, c, v)
			}
		}
	}
	// Level 1 cell (2, 1) covers rows 4-5, cols 2-3: only cell (4, 2) is
	// in the grid; cell (3, 0) covers padding alone.
	tl, _ := pyr.Tile(Coord{Level: 1, Y: 1, X: 0})
	if v := cell(t, tl, "v", 0, 1); v != 14 {
		t.Errorf("edge window = %v, want 14, its one non-empty cell", v)
	}
	if v := cell(t, tl, "v", 1, 0); !math.IsNaN(v) {
		t.Errorf("padding window = %v, want NaN", v)
	}
}

func TestBuildRejectsBadParams(t *testing.T) {
	if _, err := Build(rawGrid(8), 0); err == nil {
		t.Error("TileSize 0 should fail")
	}
}

func TestBuildRejectsMalformedGrid(t *testing.T) {
	plane := make([]float64, 4*4)
	for name, g := range map[string]*Grid{
		"nil":             nil,
		"zero value":      {},
		"no rows":         {Rows: 0, Cols: 4, Attrs: []string{"v"}, Data: [][]float64{{}}},
		"no attributes":   {Rows: 4, Cols: 4},
		"missing plane":   {Rows: 4, Cols: 4, Attrs: []string{"v", "w"}, Data: [][]float64{plane}},
		"extra plane":     {Rows: 4, Cols: 4, Attrs: []string{"v"}, Data: [][]float64{plane, plane}},
		"short plane":     {Rows: 4, Cols: 4, Attrs: []string{"v", "w"}, Data: [][]float64{plane, plane[:15]}},
		"long plane":      {Rows: 4, Cols: 3, Attrs: []string{"v"}, Data: [][]float64{plane}},
		"overflowing dim": {Rows: 1 << 62, Cols: 4, Attrs: []string{"v"}, Data: [][]float64{plane}},
	} {
		if _, err := Build(g, 2); err == nil {
			t.Errorf("%s: Build accepted a malformed grid", name)
		}
	}
}

// TestBuildAvgMatchesPaperFigure3: a 16x16 level regridded with (2, 2)
// becomes the 8x8 level above it, each cell the average of a 2x2 window.
func TestBuildAvgMatchesPaperFigure3(t *testing.T) {
	pyr, err := Build(rawGrid(16), 8)
	if err != nil {
		t.Fatal(err)
	}
	root, _ := pyr.Tile(Coord{})
	if pyr.NumLevels() != 2 || root.Size != 8 {
		t.Fatalf("levels = %d, root size = %d; want 2 levels, 8x8 root", pyr.NumLevels(), root.Size)
	}
	for r := range 8 {
		for c := range 8 {
			// The window holds cells 2r*16+2c, +1, +16 and +17.
			want := float64(2*r*16+2*c) + 8.5
			if v := cell(t, root, "v", r, c); v != want {
				t.Fatalf("cell (%d,%d) = %v, want %v", r, c, v, want)
			}
		}
	}
}

// windowMean builds a pyramid of 1x1 tiles over one 2x2 window and returns
// its root cell, the window's aggregate.
func windowMean(t *testing.T, w ...float64) float64 {
	t.Helper()
	pyr, err := Build(&Grid{Rows: 2, Cols: 2, Attrs: []string{"v"}, Data: [][]float64{w}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	root, _ := pyr.Tile(Coord{})
	v := cell(t, root, "v", 0, 0)
	return v
}

// TestBuildSkipsNaN: a window's mean is over its non-empty cells.
func TestBuildSkipsNaN(t *testing.T) {
	nan := math.NaN()
	if v := windowMean(t, nan, 4, 4, 4); v != 4 {
		t.Errorf("mean skipping NaN = %v, want 4", v)
	}
	if v := windowMean(t, 1, nan, 2, 6); v != 3 {
		t.Errorf("mean of 1, 2, 6 = %v, want 3 (divided by the 3 non-empty cells)", v)
	}
}

// TestBuildAllNaNWindow: a window with no non-empty cell is empty.
func TestBuildAllNaNWindow(t *testing.T) {
	nan := math.NaN()
	if v := windowMean(t, nan, nan, nan, nan); !math.IsNaN(v) {
		t.Errorf("all-empty window = %v, want NaN", v)
	}
}

// TestIndexIsEachTileOrder: Index numbers the tiles 0, 1, 2, ... in the
// order EachTile visits them, and Index(Coord{Level: n}) counts them.
func TestIndexIsEachTileOrder(t *testing.T) {
	pyr, err := Build(rawGrid(64), 8)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	pyr.EachTile(func(tl *Tile) bool {
		if got := Index(tl.Coord); got != i {
			t.Errorf("Index(%s) = %d, want %d", tl.Coord, got, i)
		}
		i++
		return true
	})
	if n := Index(Coord{Level: pyr.NumLevels()}); n != i || n != pyr.NumTiles() {
		t.Errorf("Index(Coord{Level: %d}) = %d, want %d tiles", pyr.NumLevels(), n, i)
	}
}

func TestEveryTileSameSize(t *testing.T) {
	pyr, err := Build(rawGrid(64), 8)
	if err != nil {
		t.Fatal(err)
	}
	pyr.EachTile(func(tl *Tile) bool {
		if tl.Size != 8 {
			t.Errorf("tile %s size = %d, want 8", tl.Coord, tl.Size)
			return false
		}
		g, err := tl.Grid("v")
		if err != nil || len(g) != 64 {
			t.Errorf("tile %s grid len = %d err=%v", tl.Coord, len(g), err)
			return false
		}
		return true
	})
}

func TestAggregationConsistencyAcrossLevels(t *testing.T) {
	// Every cell of every non-base level must equal the average of the 2x2
	// block under it in the child tile (no NaN in this raw grid).
	pyr, err := Build(rawGrid(32), 8)
	if err != nil {
		t.Fatal(err)
	}
	ts := pyr.TileSize()
	checked := 0
	pyr.EachTile(func(parent *Tile) bool {
		if parent.Coord.Level == pyr.NumLevels()-1 {
			return true
		}
		for r := 0; r < ts; r++ {
			for c := 0; c < ts; c++ {
				// The cell's 2x2 block, in the next level's global cell grid.
				gr, gc := 2*(parent.Coord.Y*ts+r), 2*(parent.Coord.X*ts+c)
				child, err := pyr.Tile(Coord{Level: parent.Coord.Level + 1, Y: gr / ts, X: gc / ts})
				if err != nil {
					t.Fatal(err)
				}
				pv := cell(t, parent, "v", r, c)
				sum := 0.0
				for dr := 0; dr < 2; dr++ {
					for dc := 0; dc < 2; dc++ {
						cv := cell(t, child, "v", gr%ts+dr, gc%ts+dc)
						sum += cv
					}
				}
				if math.Abs(pv-sum/4) > 1e-9 {
					t.Fatalf("%s cell (%d,%d)=%v, children avg %v", parent.Coord, r, c, pv, sum/4)
				}
				checked++
			}
		}
		return true
	})
	if want := (1 + 4) * ts * ts; checked != want {
		t.Errorf("checked %d parent cells, want %d (levels 0 and 1)", checked, want)
	}
}

func TestTileCoverageMatchesChildQuadrants(t *testing.T) {
	// One tile at level i must cover exactly its four child tiles' data.
	pyr, err := Build(rawGrid(32), 8)
	if err != nil {
		t.Fatal(err)
	}
	parent, err := pyr.Tile(Coord{Level: 1, Y: 0, X: 1})
	if err != nil {
		t.Fatal(err)
	}
	child, err := pyr.Tile(Coord{Level: 1, Y: 0, X: 1}.Child(NW))
	if err != nil {
		t.Fatal(err)
	}
	// The parent's top-left cell aggregates the child's top-left 2x2 block.
	pv := cell(t, parent, "v", 0, 0)
	var sum float64
	for dr := 0; dr < 2; dr++ {
		for dc := 0; dc < 2; dc++ {
			cv := cell(t, child, "v", dr, dc)
			sum += cv
		}
	}
	if math.Abs(pv-sum/4) > 1e-9 {
		t.Errorf("parent cell %v != child quad avg %v", pv, sum/4)
	}
}

func TestContains(t *testing.T) {
	pyr, err := Build(rawGrid(32), 8)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		c    Coord
		want bool
	}{
		{Coord{0, 0, 0}, true},
		{Coord{2, 3, 3}, true},
		{Coord{2, 4, 0}, false},
		{Coord{2, 0, 4}, false},
		{Coord{1, 2, 2}, false},
		{Coord{-1, 0, 0}, false},
		{Coord{3, 0, 0}, false},
		{Coord{9, 0, 0}, false},
		{Coord{1, -1, 0}, false},
		{Coord{1, 0, -1}, false},
	}
	for _, tc := range cases {
		if got := pyr.Contains(tc.c); got != tc.want {
			t.Errorf("Contains(%v) = %v, want %v", tc.c, got, tc.want)
		}
		tl, err := pyr.Tile(tc.c)
		switch {
		case tc.want && (err != nil || tl.Coord != tc.c):
			t.Errorf("Tile(%v) = %v, %v; want the tile at %v", tc.c, tl, err, tc.c)
		case !tc.want && err == nil:
			t.Errorf("Tile(%v) outside the pyramid should fail", tc.c)
		}
	}
}

// signedPyramid is a pyramid whose tiles carry a "mean" signature.
func signedPyramid(t *testing.T) *Pyramid {
	t.Helper()
	pyr, err := Build(rawGrid(64), 8)
	if err != nil {
		t.Fatal(err)
	}
	pyr.ComputeMetadata(func(tl *Tile) map[string][]float64 {
		mean, _, _, _, _, _ := tl.Stats("v")
		return map[string][]float64{"mean": {mean}}
	})
	return pyr
}

func TestPyramidConcurrentReaders(t *testing.T) {
	// Reads take no lock; under -race this pins that none needs one.
	pyr := signedPyramid(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			seen := 0
			pyr.EachTile(func(tl *Tile) bool {
				got, err := pyr.Tile(tl.Coord)
				if err != nil || got != tl || !pyr.Contains(tl.Coord) || len(got.Signatures["mean"]) != 1 {
					t.Errorf("Tile(%v) = %p, %v; EachTile gave %p with signatures %v", tl.Coord, got, err, tl, tl.Signatures)
					return false
				}
				seen++
				return true
			})
			if seen != pyr.NumTiles() {
				t.Errorf("EachTile visited %d of %d tiles", seen, pyr.NumTiles())
			}
		}()
	}
	wg.Wait()
}

func TestPyramidTileNoAllocs(t *testing.T) {
	pyr := signedPyramid(t)
	c := Coord{Level: 2, Y: 1, X: 3}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := pyr.Tile(c); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Tile allocates %v times per call, want 0", allocs)
	}
}

func TestMetadataHook(t *testing.T) {
	called := 0
	meta := func(tl *Tile) map[string][]float64 {
		called++
		mean, _, _, _, _, err := tl.Stats("v")
		if err != nil {
			t.Fatal(err)
		}
		return map[string][]float64{"mean": {mean}}
	}
	pyr, err := Build(rawGrid(16), 8)
	if err != nil {
		t.Fatal(err)
	}
	pyr.ComputeMetadata(meta)
	if called != pyr.NumTiles() {
		t.Errorf("metadata called %d times for %d tiles", called, pyr.NumTiles())
	}
	tl, _ := pyr.Tile(Coord{Level: 0, Y: 0, X: 0})
	if tl.Signatures == nil || len(tl.Signatures["mean"]) != 1 {
		t.Errorf("signatures not attached: %v", tl.Signatures)
	}
}

func TestTileStats(t *testing.T) {
	tl := &Tile{
		Coord: Coord{0, 0, 0}, Size: 2, Attrs: []string{"v"},
		Data: [][]float64{{1, 2, 3, math.NaN()}},
	}
	mean, std, mn, mx, n, err := tl.Stats("v")
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 || mean != 2 || mn != 1 || mx != 3 {
		t.Errorf("stats = mean %v std %v min %v max %v n %d", mean, std, mn, mx, n)
	}
	if _, _, _, _, _, err := tl.Stats("zzz"); err == nil {
		t.Error("Stats on missing attr should fail")
	}
}

func TestTileJSONRoundTrip(t *testing.T) {
	tl := &Tile{
		Coord: Coord{1, 0, 1}, Size: 2, Attrs: []string{"v"},
		Data:       [][]float64{{1.5, math.NaN(), -2, 0}},
		Signatures: map[string][]float64{"normal": {1.5, 0.2}},
	}
	b, err := json.Marshal(tl)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	var got Tile
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if got.Coord != tl.Coord || got.Size != tl.Size {
		t.Errorf("round trip coord/size: %+v", got)
	}
	g, err := got.Grid("v")
	if err != nil {
		t.Fatal(err)
	}
	if g[0] != 1.5 || !math.IsNaN(g[1]) || g[2] != -2 || g[3] != 0 {
		t.Errorf("round trip grid = %v", g)
	}
	if got.Signatures["normal"][0] != 1.5 {
		t.Errorf("round trip signatures = %v", got.Signatures)
	}
}

func TestTileBytesPositive(t *testing.T) {
	tl := &Tile{Size: 4, Attrs: []string{"v"}, Data: [][]float64{make([]float64, 16)}}
	if tl.Bytes() <= 16*8 {
		t.Errorf("Bytes = %d, want > 128", tl.Bytes())
	}
}

func BenchmarkBuildPyramid(b *testing.B) {
	data := make([]float64, 256*256)
	for i := range data {
		data[i] = float64(i % 251)
	}
	raw := &Grid{Rows: 256, Cols: 256, Attrs: []string{"v"}, Data: [][]float64{data}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(raw, 64); err != nil {
			b.Fatal(err)
		}
	}
}
