package sig

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"forecache/internal/modis"
	"forecache/internal/tile"
)

// worldTiles builds the MODIS world's pyramid at seed/size with 16-cell
// tiles and a Computer trained on it the way the deployment trains one:
// the ndsi_avg defaults, the world seed, 80 sampled codebook tiles.
func worldTiles(tb testing.TB, seed int64, size int) (*Computer, []*tile.Tile) {
	tb.Helper()
	planes, err := modis.BuildWorld(seed, size)
	if err != nil {
		tb.Fatal(err)
	}
	pyr, err := tile.Build(&tile.Grid{Rows: size, Cols: size, Attrs: modis.Attrs, Data: planes}, 16)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := DefaultConfig("ndsi_avg")
	cfg.Seed = seed
	c := NewComputer(cfg)
	c.TrainCodebook(pyr.SampleTiles(80))
	var tiles []*tile.Tile
	pyr.EachTile(func(t *tile.Tile) bool {
		tiles = append(tiles, t)
		return true
	})
	return c, tiles
}

// TestComputeConcurrent: the kernels' scratch tables belong to one Compute
// call, so Compute on one Computer from eight goroutines gives every tile
// of a 128 world exactly the signatures a serial pass gives it (== on
// every float, NaN never occurring).
func TestComputeConcurrent(t *testing.T) {
	c, tiles := worldTiles(t, 42, 128)
	want := make([]map[string][]float64, len(tiles))
	for i, tl := range tiles {
		want[i] = c.Compute(tl)
	}
	const workers = 8
	got := make([]map[string][]float64, len(tiles))
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Every worker computes every tile; worker w keeps its share.
			for i, tl := range tiles {
				s := c.Compute(tl)
				if i%workers == w {
					got[i] = s
				}
			}
		}()
	}
	wg.Wait()
	for i := range tiles {
		if len(got[i]) != len(AllNames()) {
			t.Fatalf("tile %v: %d signatures, want %d", tiles[i].Coord, len(got[i]), len(AllNames()))
		}
		for _, name := range AllNames() {
			g, w := got[i][name], want[i][name]
			if len(g) != len(w) {
				t.Fatalf("tile %v %s: len %d, serial %d", tiles[i].Coord, name, len(g), len(w))
			}
			for j := range w {
				if g[j] != w[j] || math.IsNaN(w[j]) {
					t.Fatalf("tile %v %s[%d] = %v, serial %v", tiles[i].Coord, name, j, g[j], w[j])
				}
			}
		}
	}
}

// BenchmarkCompute times every tile's four signatures on the default 7/512
// world: the signature half of setup.build_world_s.
func BenchmarkCompute(b *testing.B) {
	c, tiles := worldTiles(b, 7, 512)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		for _, tl := range tiles {
			c.Compute(tl)
		}
	}
}

// TestKernelsMatchDirect holds the table-driven kernels to the direct
// computation they replace, to the bit: blur against a per-tap clamp with
// the kernel rebuilt from sigma, and every patch descriptor (each tile
// pixel as center) against one that recomputes each pixel's gradient and
// weight. The grids are random, so every orientation bin and edge case
// occurs; sizes 8 and 9 put most patch pixels outside the tile.
func TestKernelsMatchDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, size := range []int{8, 9, 16, 23} {
		grid := make([]float64, size*size)
		for i := range grid {
			if rng.Intn(5) > 0 { // leave flat runs, where gradients are 0
				grid[i] = rng.Float64()
			}
		}
		sigma := baseSigma
		for s := range dogScales {
			want := blurDirect(grid, size, sigma)
			got, tmp := make([]float64, len(grid)), make([]float64, len(grid))
			blur(got, tmp, grid, size, dogKernels[s])
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("size %d sigma %v: blur[%d] = %v, direct %v", size, sigma, i, got[i], want[i])
				}
			}
			sigma *= math.Sqrt2
		}
		gr := newGradients(grid, size)
		desc := make([]float64, descriptorSize)
		for cy := range size {
			for cx := range size {
				want := describePatchDirect(grid, size, cy, cx)
				clear(desc)
				gr.describe(desc, cy, cx)
				for i := range want {
					if desc[i] != want[i] {
						t.Fatalf("size %d center (%d,%d): desc[%d] = %v, direct %v", size, cy, cx, i, desc[i], want[i])
					}
				}
			}
		}
	}
}

// blurDirect is blur as it was before the kernel and index tables: the
// kernel built per call and each tap clamped.
func blurDirect(src []float64, size int, sigma float64) []float64 {
	k := gaussianKernel(sigma)
	radius := len(k) / 2
	tmp := make([]float64, len(src))
	dst := make([]float64, len(src))
	for y := 0; y < size; y++ {
		row := y * size
		for x := 0; x < size; x++ {
			acc := 0.0
			for i, w := range k {
				sx := min(max(x+i-radius, 0), size-1)
				acc += w * src[row+sx]
			}
			tmp[row+x] = acc
		}
	}
	for y := 0; y < size; y++ {
		for x := 0; x < size; x++ {
			acc := 0.0
			for i, w := range k {
				sy := min(max(y+i-radius, 0), size-1)
				acc += w * tmp[sy*size+x]
			}
			dst[y*size+x] = acc
		}
	}
	return dst
}

// describePatchDirect is the descriptor as it was before the gradient
// table: each patch pixel's gradient, orientation and Gaussian weight
// computed where the patch reads it.
func describePatchDirect(grid []float64, size, cy, cx int) []float64 {
	desc := make([]float64, descriptorSize)
	const patch = 16
	half := patch / 2
	cell := patch / descriptorCells
	sigma := float64(half)
	at := func(y, x int) float64 {
		return grid[min(max(y, 0), size-1)*size+min(max(x, 0), size-1)]
	}
	for dy := -half; dy < half; dy++ {
		for dx := -half; dx < half; dx++ {
			y, x := cy+dy, cx+dx
			gy := at(y+1, x) - at(y-1, x)
			gx := at(y, x+1) - at(y, x-1)
			mag := math.Hypot(gx, gy)
			if mag == 0 {
				continue
			}
			theta := math.Atan2(gy, gx)
			bin := min(int((theta+math.Pi)/(2*math.Pi)*descriptorBins), descriptorBins-1)
			w := math.Exp(-(float64(dy*dy) + float64(dx*dx)) / (2 * sigma * sigma))
			desc[((dy+half)/cell*descriptorCells+(dx+half)/cell)*descriptorBins+bin] += w * mag
		}
	}
	norm := 0.0
	for _, v := range desc {
		norm += v * v
	}
	if norm == 0 {
		return desc
	}
	norm = math.Sqrt(norm)
	for i := range desc {
		desc[i] = min(desc[i]/norm, 0.2)
	}
	norm = 0
	for _, v := range desc {
		norm += v * v
	}
	norm = math.Sqrt(norm)
	for i := range desc {
		desc[i] /= norm
	}
	return desc
}
