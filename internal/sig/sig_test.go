package sig

import (
	"math"
	"testing"
	"testing/quick"

	"forecache/internal/tile"
)

func mkTile(size int, fn func(y, x int) float64) *tile.Tile {
	data := make([]float64, size*size)
	for y := 0; y < size; y++ {
		for x := 0; x < size; x++ {
			data[y*size+x] = fn(y, x)
		}
	}
	return &tile.Tile{
		Coord: tile.Coord{Level: 1, Y: 0, X: 0},
		Size:  size,
		Attrs: []string{"v"},
		Data:  [][]float64{data},
	}
}

func blobTile(size, cy, cx int, amp float64) *tile.Tile {
	return mkTile(size, func(y, x int) float64 {
		dy, dx := float64(y-cy), float64(x-cx)
		return amp * math.Exp(-(dy*dy+dx*dx)/18)
	})
}

func testComputer() *Computer {
	cfg := DefaultConfig("v")
	cfg.ValueMin, cfg.ValueMax = 0, 1
	return NewComputer(cfg)
}

func TestNormalSignature(t *testing.T) {
	c := testComputer()
	tl := mkTile(8, func(y, x int) float64 { return 0.5 })
	sg := c.Normal(tl)
	if len(sg) != 2 {
		t.Fatalf("normal len = %d", len(sg))
	}
	if math.Abs(sg[0]-0.5) > 1e-9 || sg[1] != 0 {
		t.Errorf("normal of constant 0.5 tile = %v, want [0.5 0]", sg)
	}
}

func TestNormalEmptyTile(t *testing.T) {
	c := testComputer()
	tl := mkTile(8, func(y, x int) float64 { return math.NaN() })
	sg := c.Normal(tl)
	if sg[0] != 0 || sg[1] != 0 {
		t.Errorf("normal of empty tile = %v, want zeros", sg)
	}
}

func TestNormalMissingAttr(t *testing.T) {
	cfg := DefaultConfig("missing")
	c := NewComputer(cfg)
	tl := mkTile(8, func(y, x int) float64 { return 1 })
	if sg := c.Normal(tl); sg[0] != 0 || sg[1] != 0 {
		t.Errorf("normal with missing attr = %v", sg)
	}
}

func TestHistogramSumsToOneAndBins(t *testing.T) {
	c := testComputer()
	tl := mkTile(4, func(y, x int) float64 {
		if y < 2 {
			return 0.01 // lowest bin
		}
		return 0.99 // highest bin
	})
	h := c.Histogram(tl)
	if len(h) != histBins {
		t.Fatalf("hist len = %d", len(h))
	}
	sum := 0.0
	for _, v := range h {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("hist sum = %v, want 1", sum)
	}
	if h[0] != 0.5 || h[len(h)-1] != 0.5 {
		t.Errorf("hist = %v, want mass split between first and last bins", h)
	}
}

func TestHistogramSkipsNaNAndClampsOutliers(t *testing.T) {
	c := testComputer()
	tl := mkTile(2, func(y, x int) float64 {
		switch {
		case y == 0 && x == 0:
			return math.NaN()
		case y == 0 && x == 1:
			return -5 // below range -> clamped to bin 0
		default:
			return 7 // above range -> clamped to last bin
		}
	})
	h := c.Histogram(tl)
	if math.Abs(h[0]-1.0/3) > 1e-9 || math.Abs(h[len(h)-1]-2.0/3) > 1e-9 {
		t.Errorf("hist = %v", h)
	}
}

func TestChiSquaredProperties(t *testing.T) {
	a := []float64{0.5, 0.5, 0}
	b := []float64{0, 0.5, 0.5}
	if d := ChiSquared(a, a); d != 0 {
		t.Errorf("self distance = %v", d)
	}
	if d1, d2 := ChiSquared(a, b), ChiSquared(b, a); math.Abs(d1-d2) > 1e-12 {
		t.Errorf("asymmetric: %v vs %v", d1, d2)
	}
	// Signatures are histogram-shaped: nonnegative and bounded. Map the
	// generated values into [0,1] like normalizeSum would.
	f := func(xs, ys [8]float64) bool {
		a := make([]float64, 8)
		b := make([]float64, 8)
		for i := range a {
			a[i] = math.Abs(math.Mod(xs[i], 1))
			b[i] = math.Abs(math.Mod(ys[i], 1))
			if math.IsNaN(a[i]) {
				a[i] = 0
			}
			if math.IsNaN(b[i]) {
				b[i] = 0
			}
		}
		d := ChiSquared(a, b)
		return d >= 0 && !math.IsNaN(d) && math.Abs(d-ChiSquared(b, a)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestChiSquaredLengthMismatch(t *testing.T) {
	d := ChiSquared([]float64{1}, []float64{1, 0.4})
	if math.Abs(d-0.2) > 1e-12 {
		t.Errorf("mismatched length distance = %v, want 0.2", d)
	}
}

func TestWeightedL2(t *testing.T) {
	d := WeightedL2([]float64{3, 4}, nil)
	if d != 5 {
		t.Errorf("unweighted = %v, want 5", d)
	}
	d = WeightedL2([]float64{3, 4}, []float64{1, 0})
	if d != 3 {
		t.Errorf("weighted = %v, want 3", d)
	}
}

func TestDetectKeypointsFindsBlob(t *testing.T) {
	tl := blobTile(32, 16, 16, 1)
	c := testComputer()
	g := c.normalizeGrid(tl)
	kps := detectKeypoints(g, 32, 10)
	if len(kps) == 0 {
		t.Fatal("no keypoints on a strong blob")
	}
	// Strongest keypoint should be near the blob center.
	if d := math.Hypot(float64(kps[0].y-16), float64(kps[0].x-16)); d > 6 {
		t.Errorf("strongest keypoint at (%d,%d), far from blob center", kps[0].y, kps[0].x)
	}
}

func TestDetectKeypointsFlatTileFallback(t *testing.T) {
	tl := mkTile(32, func(y, x int) float64 { return 0.5 })
	c := testComputer()
	kps := detectKeypoints(c.normalizeGrid(tl), 32, 10)
	// A featureless tile has no DoG extrema; the detector falls back to
	// the five structural keypoints so the histogram stays comparable.
	if len(kps) != 5 {
		t.Fatalf("flat tile produced %d keypoints, want 5 structural fallbacks", len(kps))
	}
	if kps[0].response != 0 {
		t.Error("fallback keypoints carry no DoG response")
	}
}

func TestDetectKeypointsTinyTile(t *testing.T) {
	if kps := detectKeypoints(make([]float64, 16), 4, 10); kps != nil {
		t.Errorf("tiny tile should yield nil keypoints, got %v", kps)
	}
}

func TestDescriptorNormalized(t *testing.T) {
	tl := blobTile(32, 12, 20, 1)
	c := testComputer()
	g := c.normalizeGrid(tl)
	d := newGradients(g, 32).describe(make([]float64, descriptorSize), 12, 20)
	if len(d) != descriptorSize {
		t.Fatalf("descriptor len = %d, want %d", len(d), descriptorSize)
	}
	norm := 0.0
	for _, v := range d {
		if v < 0 {
			t.Fatalf("negative descriptor entry %v", v)
		}
		norm += v * v
	}
	if math.Abs(math.Sqrt(norm)-1) > 1e-9 {
		t.Errorf("descriptor L2 norm = %v, want 1", math.Sqrt(norm))
	}
}

func TestDescriptorFlatPatchIsZero(t *testing.T) {
	g := make([]float64, 32*32)
	d := newGradients(g, 32).describe(make([]float64, descriptorSize), 16, 16)
	for i, v := range d {
		if v != 0 {
			t.Fatalf("flat patch descriptor[%d] = %v", i, v)
		}
	}
}

func TestCodebookAssignNearest(t *testing.T) {
	cb := &Codebook{Centroids: [][]float64{{0, 0}, {1, 1}}}
	if w := cb.Assign([]float64{0.1, 0.1}); w != 0 {
		t.Errorf("assign = %d, want 0", w)
	}
	if w := cb.Assign([]float64{0.9, 0.9}); w != 1 {
		t.Errorf("assign = %d, want 1", w)
	}
}

func TestTrainCodebookDeterministic(t *testing.T) {
	descs := [][]float64{{0, 0}, {0, 0.1}, {1, 1}, {1, 0.9}, {0.5, 0.5}}
	a := TrainCodebook(descs, 2, 42)
	b := TrainCodebook(descs, 2, 42)
	for i := range a.Centroids {
		for j := range a.Centroids[i] {
			if a.Centroids[i][j] != b.Centroids[i][j] {
				t.Fatal("codebook training not deterministic")
			}
		}
	}
}

func TestTrainCodebookSeparatesClusters(t *testing.T) {
	var descs [][]float64
	for i := 0; i < 20; i++ {
		descs = append(descs, []float64{0 + float64(i%3)*0.01, 0})
		descs = append(descs, []float64{1 - float64(i%3)*0.01, 1})
	}
	cb := TrainCodebook(descs, 2, 7)
	a := cb.Assign([]float64{0, 0})
	b := cb.Assign([]float64{1, 1})
	if a == b {
		t.Error("two well-separated clusters mapped to the same word")
	}
}

func TestTrainCodebookEmptyInput(t *testing.T) {
	cb := TrainCodebook(nil, 4, 1)
	if len(cb.Centroids) != 4 {
		t.Fatalf("%d visual words, want 4", len(cb.Centroids))
	}
	if w := cb.Assign(make([]float64, descriptorSize)); w != 0 {
		t.Errorf("assign on zero codebook = %d", w)
	}
}

func TestComputeWithoutCodebook(t *testing.T) {
	c := testComputer()
	out := c.Compute(blobTile(32, 16, 16, 1))
	if _, ok := out[NameNormal]; !ok {
		t.Error("missing normal signature")
	}
	if _, ok := out[NameSIFT]; ok {
		t.Error("sift emitted without a trained codebook")
	}
}

func TestComputeAllFour(t *testing.T) {
	c := testComputer()
	train := []*tile.Tile{
		blobTile(32, 8, 8, 1), blobTile(32, 20, 20, 0.8),
		mkTile(32, func(y, x int) float64 { return float64(x) / 32 }),
	}
	c.TrainCodebook(train)
	out := c.Compute(blobTile(32, 16, 16, 1))
	for _, name := range AllNames() {
		if _, ok := out[name]; !ok {
			t.Errorf("missing signature %q", name)
		}
	}
	if len(out[NameDenseSIFT]) != 4*words {
		t.Errorf("densesift len = %d, want %d", len(out[NameDenseSIFT]), 4*words)
	}
}

// Semantic check behind Figure 10b: SIFT must consider two different tiles
// that both contain a blob landmark more similar than a blob tile vs a
// featureless gradient tile.
func TestSIFTMatchesLandmarks(t *testing.T) {
	c := testComputer()
	blobA := blobTile(32, 10, 10, 1)
	blobB := blobTile(32, 22, 18, 0.9)
	flat := mkTile(32, func(y, x int) float64 { return 0.3 + 0.001*float64(x) })
	c.TrainCodebook([]*tile.Tile{blobA, blobB, flat})
	sa := c.Compute(blobA)[NameSIFT]
	sb := c.Compute(blobB)[NameSIFT]
	sf := c.Compute(flat)[NameSIFT]
	dSimilar := ChiSquared(sa, sb)
	dDifferent := ChiSquared(sa, sf)
	if !(dSimilar < dDifferent) {
		t.Errorf("sift: blob-blob distance %v should be < blob-flat %v", dSimilar, dDifferent)
	}
}

// DenseSIFT is position sensitive: the same landmark in opposite corners
// should be farther apart under densesift than under plain sift (relative
// to each signature's own scale). This is the mechanism the paper gives
// for DenseSIFT underperforming on MODIS (§5.4.2). The codebook trains on
// the landmark at nine positions, as a pyramid's own tiles would show it,
// so that its words describe the landmark rather than one tile's pixels.
func TestDenseSIFTIsPositionSensitive(t *testing.T) {
	c := testComputer()
	nw := blobTile(32, 7, 7, 1)
	se := blobTile(32, 25, 25, 1)
	var train []*tile.Tile
	for _, y := range []int{7, 16, 25} {
		for _, x := range []int{7, 16, 25} {
			train = append(train, blobTile(32, y, x, 1))
		}
	}
	c.TrainCodebook(train)
	a, b := c.Compute(nw), c.Compute(se)
	dense := ChiSquared(a[NameDenseSIFT], b[NameDenseSIFT])
	sparse := ChiSquared(a[NameSIFT], b[NameSIFT])
	if !(dense > sparse) {
		t.Errorf("densesift distance %v should exceed sift distance %v for moved landmark", dense, sparse)
	}
}

func TestSignatureDeterminism(t *testing.T) {
	mk := func() map[string][]float64 {
		c := testComputer()
		tiles := []*tile.Tile{blobTile(32, 10, 10, 1), blobTile(32, 20, 20, 1)}
		c.TrainCodebook(tiles)
		return c.Compute(tiles[0])
	}
	a, b := mk(), mk()
	for name, av := range a {
		bv := b[name]
		if len(av) != len(bv) {
			t.Fatalf("%s length differs", name)
		}
		for i := range av {
			if av[i] != bv[i] {
				t.Fatalf("%s[%d] differs across identical runs", name, i)
			}
		}
	}
}

func BenchmarkSIFTSignature(b *testing.B) {
	c := testComputer()
	tiles := []*tile.Tile{blobTile(64, 20, 20, 1), blobTile(64, 40, 44, 0.8)}
	c.TrainCodebook(tiles)
	tl := blobTile(64, 32, 32, 1)
	g := c.normalizeGrid(tl)
	h := make([]float64, words)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clear(h)
		c.sift(h, newGradients(g, tl.Size), make([]float64, descriptorSize))
	}
}

func BenchmarkChiSquared(b *testing.B) {
	x := make([]float64, 96)
	y := make([]float64, 96)
	for i := range x {
		x[i] = float64(i) / 96
		y[i] = float64(95-i) / 96
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ChiSquared(x, y)
	}
}
