package render

import (
	"image/png"
	"math"
	"os"
	"path/filepath"
	"testing"

	"forecache/internal/tile"
)

// rampPyramid is one 4x4 tile ramping over [-1, 1] with cell 5 empty.
func rampPyramid(t *testing.T) *tile.Pyramid {
	t.Helper()
	data := make([]float64, 4*4)
	for i := range data {
		data[i] = float64(i)/15*2 - 1
	}
	data[5] = math.NaN()
	pyr, err := tile.Build(&tile.Grid{Rows: 4, Cols: 4, Attrs: []string{"ndsi_avg"}, Data: [][]float64{data}}, 4)
	if err != nil {
		t.Fatal(err)
	}
	return pyr
}

func TestLevelMosaic(t *testing.T) {
	data := make([]float64, 16*16)
	for i := range data {
		data[i] = float64(i % 16)
	}
	pyr, err := tile.Build(&tile.Grid{Rows: 16, Cols: 16, Attrs: []string{"v"}, Data: [][]float64{data}}, 8)
	if err != nil {
		t.Fatal(err)
	}
	img, err := Level(pyr, 1, Options{Attr: "v", Min: 0, Max: 16})
	if err != nil {
		t.Fatalf("Level: %v", err)
	}
	if img.Bounds().Dx() != 16 {
		t.Errorf("level mosaic width = %d, want 16", img.Bounds().Dx())
	}
	if _, err := Level(pyr, 9, Options{Attr: "v"}); err == nil {
		t.Error("out-of-range level should fail")
	}

	t.Run("cells", func(t *testing.T) {
		img, err := Level(rampPyramid(t), 0, Options{Attr: "ndsi_avg", Min: -1, Max: 1})
		if err != nil {
			t.Fatalf("Level: %v", err)
		}
		b := img.Bounds()
		if b.Dx() != 4 || b.Dy() != 4 {
			t.Errorf("bounds = %v, want 4x4", b)
		}
		// NaN cell renders as the empty color, not a palette color.
		r, g, bl, _ := img.At(1, 1).RGBA() // cell 5 = (y1,x1)
		if r>>8 != uint32(emptyColor.R) || g>>8 != uint32(emptyColor.G) || bl>>8 != uint32(emptyColor.B) {
			t.Errorf("NaN cell color = %v", img.At(1, 1))
		}
		// Highest value should render warm (red channel dominant).
		r, g, bl, _ = img.At(3, 3).RGBA()
		if !(r > bl) {
			t.Errorf("snow cell should be warm, got r=%d g=%d b=%d", r>>8, g>>8, bl>>8)
		}
		// Lowest value should render cool (blue channel dominant).
		r, _, bl, _ = img.At(0, 0).RGBA()
		if !(bl > r) {
			t.Errorf("ocean cell should be cool, got r=%d b=%d", r>>8, bl>>8)
		}
	})
	t.Run("scale", func(t *testing.T) {
		img, err := Level(rampPyramid(t), 0, Options{Attr: "ndsi_avg", Min: -1, Max: 1, Scale: 3})
		if err != nil {
			t.Fatal(err)
		}
		if img.Bounds().Dx() != 12 {
			t.Errorf("scaled bounds = %v, want 12", img.Bounds().Dx())
		}
		// All pixels of one scaled cell are identical.
		if img.At(0, 0) != img.At(2, 2) {
			t.Error("scaled cell pixels differ")
		}
	})
	t.Run("missing attr", func(t *testing.T) {
		if _, err := Level(rampPyramid(t), 0, Options{Attr: "zzz"}); err == nil {
			t.Error("missing attribute should fail")
		}
	})
}

func TestSavePNGRoundTrip(t *testing.T) {
	img, err := Level(rampPyramid(t), 0, Options{Attr: "ndsi_avg", Min: -1, Max: 1})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "out", "tile.png")
	if err := SavePNG(path, img); err != nil {
		t.Fatalf("SavePNG: %v", err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	decoded, err := png.Decode(f)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if decoded.Bounds() != img.Bounds() {
		t.Errorf("decoded bounds = %v", decoded.Bounds())
	}
}

func TestColorMapsTotal(t *testing.T) {
	for _, v := range []float64{-5, 0, 0.3, 0.5, 0.75, 1, 7, math.NaN()} {
		if c := NDSIMap(v); c.A != 255 {
			t.Errorf("color map produced transparent pixel for %v", v)
		}
	}
}

func BenchmarkRenderLevel(b *testing.B) {
	pyr, err := tile.Build(&tile.Grid{Rows: 64, Cols: 64, Attrs: []string{"v"}, Data: [][]float64{make([]float64, 64*64)}}, 16)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Level(pyr, 2, Options{Attr: "v"}); err != nil {
			b.Fatal(err)
		}
	}
}
