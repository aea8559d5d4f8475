package tile_test

import (
	"bytes"
	"compress/gzip"
	"math"
	"math/rand"
	"sync"
	"testing"

	"forecache"
	"forecache/internal/tile"
)

// worldTiles returns every tile of the benchmark world (seed 7, 512², 16²
// tiles, all four signatures), built once per test binary.
var worldTiles = sync.OnceValues(func() ([]*tile.Tile, error) {
	ds, err := forecache.BuildWorld(forecache.WorldConfig{Seed: 7, Size: 512, TileSize: 16})
	if err != nil {
		return nil, err
	}
	var tiles []*tile.Tile
	ds.Pyramid.EachTile(func(tl *tile.Tile) bool {
		tiles = append(tiles, tl)
		return true
	})
	return tiles, nil
})

// TestGzipNeverMuchLarger: storing the raw planes instead of deflating them
// never costs more than 1 % over a stock gzip.BestSpeed of the same body,
// on world tiles of three levels, on a tile too small for raw planes and on
// one whose four grids are identical (the duplicates must stay in the
// compressed run, where they deflate to back-references).
func TestGzipNeverMuchLarger(t *testing.T) {
	world, err := worldTiles()
	if err != nil {
		t.Fatal(err)
	}
	corpus := []*tile.Tile{tile.CodecTile(), tile.RealShapedTile()}
	for _, tl := range world {
		if tl.Coord.Level == 0 || tl.Coord.Level == 3 || tl.Coord.Level == 5 {
			corpus = append(corpus, tl)
		}
	}
	var ours, stock int
	for _, tl := range corpus {
		plain, err := tile.EncodeBinary(tl)
		if err != nil {
			t.Fatal(err)
		}
		gz, err := tile.Gzip(plain)
		if err != nil {
			t.Fatal(err)
		}
		var ref bytes.Buffer
		zw, _ := gzip.NewWriterLevel(&ref, gzip.BestSpeed)
		_, _ = zw.Write(plain)
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		if float64(len(gz)) > 1.01*float64(ref.Len()) {
			t.Errorf("tile %s: Gzip body %d B, stock BestSpeed %d B", tl.Coord, len(gz), ref.Len())
		}
		ours, stock = ours+len(gz), stock+ref.Len()
	}
	t.Logf("%d tiles: Gzip %d B, stock BestSpeed %d B", len(corpus), ours, stock)
}

// BenchmarkTileGzipWorld is BenchmarkTileGzip over every world tile in
// turn, one op per tile, so no duplicate grids flatter the compressor;
// gz-bytes is the mean body.
func BenchmarkTileGzipWorld(b *testing.B) {
	tiles, err := worldTiles()
	if err != nil {
		b.Fatal(err)
	}
	gzs := make([][]byte, len(tiles))
	total := 0
	for i, tl := range tiles {
		plain, err := tile.EncodeBinary(tl)
		if err == nil {
			gzs[i], err = tile.Gzip(plain)
		}
		if err != nil {
			b.Fatal(err)
		}
		total += len(gzs[i])
	}
	b.Run("encode+gzip", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			body, err := tile.EncodeBinary(tiles[i%len(tiles)])
			if err == nil {
				_, err = tile.Gzip(body)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(total)/float64(len(tiles)), "gz-bytes")
	})
	b.Run("gunzip+decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := tile.DecodeGzip(gzs[i%len(gzs)], tile.DecodeBinary); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestJSONNumbersMatchStrconv holds the JSON number kernels to strconv
// (tile.CheckJSONNumber) on every cell and signature value of the world, on
// seeded random patterns and on the boundaries of float64 and of
// encoding/json's 'f'/'e' switch.
func TestJSONNumbersMatchStrconv(t *testing.T) {
	check := func(v float64) {
		if math.IsNaN(v) {
			return
		}
		if err := tile.CheckJSONNumber(v); err != nil {
			t.Fatal(err)
		}
	}
	world, err := worldTiles()
	if err != nil {
		t.Fatal(err)
	}
	for _, tl := range world {
		for _, g := range tl.Data {
			for _, v := range g {
				check(v)
			}
		}
		for _, vec := range tl.Signatures {
			for _, v := range vec {
				check(v)
			}
		}
	}
	rng := rand.New(rand.NewSource(7))
	for range 400_000 {
		if v := math.Float64frombits(rng.Uint64()); !math.IsInf(v, 0) {
			check(v)
		}
		check(2*rng.Float64() - 1)
		check(math.Ldexp(float64(rng.Int63n(1<<53)), rng.Intn(200)-100))
	}
	for _, v := range []float64{
		0, math.Copysign(0, -1), math.Float64frombits(1), math.Float64frombits(2), math.Float64frombits(3),
		0x1p-1022, math.MaxFloat64, 1<<53 - 1, 1 << 53, 1<<53 + 2, 1e22, 1e23,
	} {
		check(v)
		check(-v)
	}
	for _, edge := range []float64{1e-6, 1e21} {
		check(edge)
		check(math.Nextafter(edge, 0))
		check(math.Nextafter(edge, math.Inf(1)))
	}
	for e := -30; e <= 30; e++ {
		check(math.Pow(10, float64(e)))
	}
}

// BenchmarkTileJSONWorld times the JSON wire format over every world tile
// in turn, one op per tile: AppendJSON into a reused buffer, and DecodeJSON
// of the tile's body.
func BenchmarkTileJSONWorld(b *testing.B) {
	tiles, err := worldTiles()
	if err != nil {
		b.Fatal(err)
	}
	bodies := make([][]byte, len(tiles))
	for i, tl := range tiles {
		if bodies[i], err = tl.EncodeJSON(); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for i := 0; i < b.N; i++ {
			if buf, err = tile.AppendJSON(buf[:0], tiles[i%len(tiles)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := tile.DecodeJSON(bodies[i%len(bodies)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}
