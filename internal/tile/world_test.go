package tile_test

import (
	"bytes"
	"compress/gzip"
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
