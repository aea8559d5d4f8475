package tile

import (
	"fmt"
	"math"
	"testing"
)

func benchTile(size int) *Tile {
	g := make([]float64, size*size)
	for i := range g {
		if i%37 == 0 {
			g[i] = math.NaN() // padding cells, as real edge tiles have
		} else {
			g[i] = float64(i%977) / 977 * 2.5
		}
	}
	return &Tile{
		Coord: Coord{Level: 4, Y: 3, X: 7},
		Size:  size,
		Attrs: []string{"ndsi"},
		Data:  [][]float64{g},
		Signatures: map[string][]float64{
			"normal": {0.5, 0.25},
			"hist":   {1, 2, 3, 4, 5, 6, 7, 8, 9, 10},
		},
	}
}

// BenchmarkTileServeEncoding compares the per-response cost of each tile
// serving path: the legacy reflection marshal (a *float64 per cell), the
// streamed JSON rewrite, the binary codec, and a warm encoded-cache hit —
// the steady state of a deployed server, where an immutable tile is
// encoded once and then served as cached bytes.
func BenchmarkTileServeEncoding(b *testing.B) {
	for _, size := range []int{16, 64} {
		tl := benchTile(size)
		b.Run(fmt.Sprintf("json-naive/size=%d", size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, err := legacyMarshalJSONBench(tl)
				if err != nil {
					b.Fatal(err)
				}
				b.SetBytes(int64(len(out)))
			}
		})
		b.Run(fmt.Sprintf("json-streamed/size=%d", size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, err := tl.MarshalJSON()
				if err != nil {
					b.Fatal(err)
				}
				b.SetBytes(int64(len(out)))
			}
		})
		b.Run(fmt.Sprintf("binary/size=%d", size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, err := EncodeBinary(tl)
				if err != nil {
					b.Fatal(err)
				}
				b.SetBytes(int64(len(out)))
			}
		})
		b.Run(fmt.Sprintf("binary-cached/size=%d", size), func(b *testing.B) {
			ec := NewEncodedCache(1<<24, nil)
			encode := func() ([]byte, error) { return EncodeBinary(tl) }
			warm, err := ec.Get(tl.Coord, FormatBinary, false, encode)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(warm)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ec.Get(tl.Coord, FormatBinary, false, encode); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// realShapedTile has the shape the benchmark world serves: 4 attributes of
// 16×16 cells and four signature vectors, about 16.7 KB of JSON.
func realShapedTile() *Tile {
	t := &Tile{Coord: Coord{Level: 4, Y: 3, X: 7}, Size: 16, Signatures: map[string][]float64{}}
	for _, a := range []string{"ndsi", "mask", "svis", "sswir"} {
		t.Attrs = append(t.Attrs, a)
		t.Data = append(t.Data, benchTile(16).Data[0])
	}
	for name, n := range map[string]int{"normal": 2, "histogram": 8, "sift": 64, "densesift": 64} {
		vec := make([]float64, n)
		for i := range vec {
			vec[i] = float64(i*7919%1009) / 1009
		}
		t.Signatures[name] = vec
	}
	return t
}

// BenchmarkTileDecode compares what a client pays to turn one /tile body
// back into a Tile: encoding/json into the pointer-per-cell mirror, the
// single-pass JSON decoder, and the binary codec.
func BenchmarkTileDecode(b *testing.B) {
	tl := realShapedTile()
	jsonBody, err := tl.EncodeJSON()
	if err != nil {
		b.Fatal(err)
	}
	binBody, err := EncodeBinary(tl)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name   string
		body   []byte
		decode func([]byte) (*Tile, error)
	}{
		{"json-reflect", jsonBody, reflectJSON},
		{"json", jsonBody, DecodeJSON},
		{"binary", binBody, DecodeBinary},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(bc.body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := bc.decode(bc.body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTileGzip measures both ends of a gzipped binary body on the
// benchmark world's tile shape (16², four attributes): what the server pays
// once per encoded-cache miss, and what every client pays per response.
func BenchmarkTileGzip(b *testing.B) {
	tl := realShapedTile()
	plain, err := EncodeBinary(tl)
	if err != nil {
		b.Fatal(err)
	}
	gz, err := Gzip(plain)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode+gzip", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			body, err := EncodeBinary(tl)
			if err == nil {
				_, err = Gzip(body)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(gz)), "gz-bytes")
	})
	b.Run("gunzip+decode", func(b *testing.B) {
		b.SetBytes(int64(len(gz)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := DecodeGzip(gz, DecodeBinary); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// legacyMarshalJSONBench aliases the compatibility oracle so the benchmark
// reads as the old serving path.
func legacyMarshalJSONBench(t *Tile) ([]byte, error) { return legacyMarshalJSON(t) }
