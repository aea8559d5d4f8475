package forecache_test

import (
	"fmt"

	"forecache"
	"forecache/internal/sig"
	"forecache/internal/tile"
)

// ExampleBuildWorld shows the one-call dataset pipeline: synthetic MODIS
// bands -> NDSI (Query 1) -> tile pyramid -> signatures.
func ExampleBuildWorld() {
	ds, err := forecache.BuildWorld(forecache.WorldConfig{Seed: 1, Size: 128, TileSize: 16})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("levels:", ds.Pyramid.NumLevels())
	fmt.Println("tiles:", ds.Pyramid.NumTiles())
	fmt.Println("attr:", ds.Attr)
	// Output:
	// levels: 4
	// tiles: 85
	// attr: ndsi_avg
}

// ExampleBuildPyramid tiles a dataset other than MODIS: a 64×64 grid of
// one attribute, heart rate in beats per minute, signed over its value
// range.
func ExampleBuildPyramid() {
	data := make([]float64, 64*64)
	for i := range data {
		data[i] = 60 + float64(i%40)
	}
	raw := &forecache.Grid{Rows: 64, Cols: 64, Attrs: []string{"bpm"}, Data: [][]float64{data}}
	sigCfg := forecache.SignatureConfig{Attr: "bpm", ValueMin: 40, ValueMax: 160, Seed: 1}
	ds, err := forecache.BuildPyramid(raw, 16, sigCfg)
	if err != nil {
		fmt.Println(err)
		return
	}
	root, _ := ds.Pyramid.Tile(forecache.Coord{})
	fmt.Println("levels:", ds.Pyramid.NumLevels())
	fmt.Println("tiles:", ds.Pyramid.NumTiles())
	fmt.Println("signatures:", len(root.Signatures))
	// Output:
	// levels: 3
	// tiles: 21
	// signatures: 4
}

// ExampleDataset_NewMiddleware walks the canonical zoom-in path and shows
// the prefetcher at work.
func ExampleDataset_NewMiddleware() {
	ds, err := forecache.BuildWorld(forecache.WorldConfig{Seed: 1, Size: 128, TileSize: 16})
	if err != nil {
		fmt.Println(err)
		return
	}
	mw, err := ds.NewMiddleware(ds.SimulateStudy(1), forecache.MiddlewareConfig{})
	if err != nil {
		fmt.Println(err)
		return
	}
	resp, _ := mw.Request(forecache.Coord{})
	fmt.Println("first request hit:", resp.Hit)
	fmt.Println("prefetched after it:", len(resp.Prefetched) > 0)
	// Output:
	// first request hit: false
	// prefetched after it: true
}

// ExampleCoord shows the tile addressing scheme: every tile has four
// children one zoom level deeper (paper §2.3).
func ExampleCoord() {
	c := forecache.Coord{Level: 1, Y: 0, X: 1}
	fmt.Println(c)
	fmt.Println(c.Child(tile.SE))
	fmt.Println(c.Child(tile.SE).Parent() == c)
	// Output:
	// L1/0/1
	// L2/1/3
	// true
}

// ExampleChiSquared shows the signature distance used by Algorithm 3.
func ExampleChiSquared() {
	snowy := []float64{0, 0.2, 0.8}
	alsoSnowy := []float64{0, 0.3, 0.7}
	bare := []float64{0.9, 0.1, 0}
	fmt.Println(sig.ChiSquared(snowy, alsoSnowy) < sig.ChiSquared(snowy, bare))
	// Output:
	// true
}
