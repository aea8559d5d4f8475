// Package render turns data tiles into images — the server-side equivalent
// of the D3 heatmap rendering the paper's browser client performs. It is
// used by the CLI's render subcommand and by anyone who wants to *see* the
// dataset the middleware serves.
//
// Renderings are plain image.Image values encodable with the stdlib's
// image/png; the color map follows the NDSI convention the paper's
// figures use (snow in warm oranges/yellows, snow-free land and ocean in
// cool greens/blues, Figure 6).
package render

import (
	"fmt"
	"image"
	"image/color"
	"image/png"
	"math"
	"os"
	"path/filepath"

	"forecache/internal/tile"
)

// NDSIMap maps a normalized value in [0,1] (clamped outside it) to the
// paper's snow-cover palette: high values (snow) in orange/yellow, low
// values in green fading to blue (Figure 6's caption: "Snow is orange to
// yellow, snow-free areas in green to blue").
func NDSIMap(v float64) color.RGBA {
	switch {
	case v >= 0.75: // deep snow: yellow
		return lerp(color.RGBA{255, 165, 0, 255}, color.RGBA{255, 255, 102, 255}, (v-0.75)/0.25)
	case v >= 0.5: // snow: orange
		return lerp(color.RGBA{205, 92, 0, 255}, color.RGBA{255, 165, 0, 255}, (v-0.5)/0.25)
	case v >= 0.3: // transition: green
		return lerp(color.RGBA{34, 139, 34, 255}, color.RGBA{154, 205, 50, 255}, (v-0.3)/0.2)
	default: // snow-free / water: blue
		return lerp(color.RGBA{8, 48, 107, 255}, color.RGBA{60, 120, 180, 255}, v/0.3)
	}
}

func lerp(a, b color.RGBA, t float64) color.RGBA {
	t = clamp01(t)
	mix := func(x, y uint8) uint8 { return uint8(float64(x) + (float64(y)-float64(x))*t) }
	return color.RGBA{mix(a.R, b.R), mix(a.G, b.G), mix(a.B, b.B), 255}
}

func clamp01(v float64) float64 {
	if v < 0 || math.IsNaN(v) {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// emptyColor renders NaN (no data / padding) cells.
var emptyColor = color.RGBA{40, 40, 40, 255}

// Options configures rendering.
type Options struct {
	// Attr is the tile attribute to render.
	Attr string
	// Min and Max bound the attribute's value range for normalization
	// (NDSI: -1..1).
	Min, Max float64
	// Scale is the integer pixel size per cell (>= 1).
	Scale int
}

func (o Options) withDefaults() Options {
	if o.Scale < 1 {
		o.Scale = 1
	}
	if o.Max <= o.Min {
		o.Min, o.Max = 0, 1
	}
	return o
}

// Level renders a whole zoom level as a mosaic of its tiles.
func Level(p *tile.Pyramid, level int, opts Options) (image.Image, error) {
	opts = opts.withDefaults()
	if level < 0 || level >= p.NumLevels() {
		return nil, fmt.Errorf("render: level %d outside [0,%d)", level, p.NumLevels())
	}
	side := p.Side(level)
	ts := p.TileSize()
	img := image.NewRGBA(image.Rect(0, 0, side*ts*opts.Scale, side*ts*opts.Scale))
	span := opts.Max - opts.Min
	for ty := 0; ty < side; ty++ {
		for tx := 0; tx < side; tx++ {
			t, err := p.Tile(tile.Coord{Level: level, Y: ty, X: tx})
			if err != nil {
				return nil, err
			}
			g, err := t.Grid(opts.Attr)
			if err != nil {
				return nil, err
			}
			for y := 0; y < ts; y++ {
				for x := 0; x < ts; x++ {
					v := g[y*ts+x]
					var c color.RGBA
					if math.IsNaN(v) {
						c = emptyColor
					} else {
						c = NDSIMap((v - opts.Min) / span)
					}
					fillCell(img, tx*ts+x, ty*ts+y, opts.Scale, c)
				}
			}
		}
	}
	return img, nil
}

func fillCell(img *image.RGBA, x, y, scale int, c color.RGBA) {
	for dy := 0; dy < scale; dy++ {
		for dx := 0; dx < scale; dx++ {
			img.SetRGBA(x*scale+dx, y*scale+dy, c)
		}
	}
}

// SavePNG encodes the image to path, creating parent directories.
func SavePNG(path string, img image.Image) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := png.Encode(f, img); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
