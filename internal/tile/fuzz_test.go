package tile

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"slices"
	"testing"
)

// FuzzTileDecodeBinary feeds arbitrary bytes to the single-tile binary
// decoder. Run continuously with:
//
//	go test ./internal/tile -run '^$' -fuzz '^FuzzTileDecodeBinary$' -fuzztime 10s
//
// Properties checked: no panic and no unbounded allocation on any input
// (the payload arrives over HTTP, so every length is attacker-controlled);
// any payload the decoder accepts must re-encode, and that canonical
// encoding must be a fixed point of decode∘encode.
func FuzzTileDecodeBinary(f *testing.F) {
	seedTiles := []*Tile{
		{Coord: Coord{Level: 1, Y: 0, X: 1}, Size: 2, Attrs: []string{"v"},
			Data: [][]float64{{1.5, math.NaN(), -2, 0}}},
		{Coord: Coord{Level: 3, Y: 5, X: 2}, Size: 4, Attrs: []string{"a", "b"},
			Data:       [][]float64{make([]float64, 16), make([]float64, 16)},
			Signatures: map[string][]float64{"normal": {0.5, 0.25}, "hist": {1, 2, 3}}},
	}
	for _, tl := range seedTiles {
		enc, err := EncodeBinary(tl)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
		f.Add(enc[:len(enc)/2]) // truncated
		corrupt := bytes.Clone(enc)
		corrupt[len(corrupt)/3] ^= 0x80
		f.Add(corrupt) // checksum mismatch
	}
	f.Add([]byte("FCT2"))
	f.Add([]byte("NOPE"))
	f.Fuzz(func(t *testing.T, data []byte) {
		tl, err := DecodeBinary(data)
		if err != nil {
			return
		}
		enc, err := EncodeBinary(tl)
		if err != nil {
			t.Fatalf("accepted tile fails to re-encode: %v", err)
		}
		tl2, err := DecodeBinary(enc)
		if err != nil {
			t.Fatalf("canonical encoding fails to decode: %v", err)
		}
		enc2, err := EncodeBinary(tl2)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatal("canonical encoding is not a fixed point")
		}
	})
}

// FuzzTileGzipRoundTrip reads its input two ways. Run continuously with:
//
//	go test ./internal/tile -run '^$' -fuzz '^FuzzTileGzipRoundTrip$' -fuzztime 10s
//
// As a gzipped body it goes to DecodeGzip, which must not panic and must
// never hand the decoder more than MaxInflated bytes. As raw float64 bit
// patterns it fills the cells of a square tile, which must come back from
// Gzip(EncodeBinary(t)) through DecodeGzip(…, DecodeBinary) bit for bit.
func FuzzTileGzipRoundTrip(f *testing.F) {
	enc, err := EncodeBinary(codecTile())
	if err != nil {
		f.Fatal(err)
	}
	gz, err := Gzip(enc)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(gz)
	f.Add(gz[:len(gz)/2])
	f.Add(enc)
	f.Add([]byte("\x1f\x8b\x08\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = DecodeGzip(data, func(b []byte) (*Tile, error) {
			if len(b) > MaxInflated {
				t.Fatalf("decoder handed %d inflated bytes, bound %d", len(b), MaxInflated)
			}
			return DecodeBinary(b)
		})
		side := max(1, min(32, int(math.Sqrt(float64(len(data)/8)))))
		g := make([]float64, side*side)
		for c := range g {
			if c*8+8 <= len(data) {
				g[c] = math.Float64frombits(binary.LittleEndian.Uint64(data[c*8:]))
			}
		}
		tl := &Tile{Coord: Coord{Level: 1, Y: 1}, Size: side, Attrs: []string{"v", "w"}, Data: [][]float64{g, slices.Clone(g)}}
		slices.Reverse(tl.Data[1])
		enc, err := EncodeBinary(tl)
		if err != nil {
			t.Fatal(err)
		}
		gz, err := Gzip(enc)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeGzip(gz, DecodeBinary)
		if err != nil {
			t.Fatalf("round trip: %v", err)
		}
		if !tilesEqual(tl, got) {
			t.Fatal("gzip round trip changed a cell's bits")
		}
	})
}

// FuzzTileDecodeJSON is the differential test of the single-pass JSON
// decoder against encoding/json. Run continuously with:
//
//	go test ./internal/tile -run '^$' -fuzz '^FuzzTileDecodeJSON$' -fuzztime 60s
//
// Properties checked: no panic on any input; whatever scanJSON accepts,
// reflectJSON accepts and decodes to the identical tile (every cell by
// Float64bits, same nil-ness); no vector is given more capacity than the
// input has bytes, whatever size the payload declares; and a tile
// DecodeJSON returns can be read through Grid and At.
func FuzzTileDecodeJSON(f *testing.F) {
	seedTiles := []*Tile{
		realShapedTile(),
		{Coord: Coord{Level: 1, Y: 0, X: 1}, Size: 2, Attrs: []string{"v"},
			Data:       [][]float64{{1.5, math.NaN(), -2e-9, math.Copysign(0, -1)}},
			Signatures: map[string][]float64{"normal": {0.5, 1e21}}},
		{Coord: Coord{Level: 2, Y: 3, X: 0}, Size: 1, Attrs: []string{"a", "b"}, Data: [][]float64{{7}, {math.NaN()}}},
		{Coord: Coord{Level: 1, Y: 1, X: 0}, Size: 1},
	}
	for _, tl := range seedTiles {
		enc, err := tl.EncodeJSON()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
		f.Add(enc[:len(enc)/2]) // truncated
		var pretty bytes.Buffer
		if err := json.Indent(&pretty, enc, "", "\t"); err != nil {
			f.Fatal(err)
		}
		f.Add(pretty.Bytes())
		f.Add(reorderKeys(f, enc))
	}
	// Tokens strconv converts but the JSON grammar does not allow, and
	// numbers outside their Go type, in a cell and in the size.
	for _, num := range []string{"01", "+1", ".5", "1.", "0x1p-2", "1_0", "Inf", "NaN", "1e999", "-", "1e", "-0", "1E+2", "99999999999999999999", "134217728"} {
		f.Add([]byte(`{"coord":{"level":0,"y":0,"x":0},"size":1,"attrs":["v"],"data":[[` + num + `]]}`))
		f.Add([]byte(`{"coord":{"level":0,"y":0,"x":0},"size":` + num + `,"attrs":["v"],"data":[[1]],"signatures":{"s":[1],"s":[2]}}`))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if fast := scanJSON(data); fast != nil {
			ref, err := reflectJSON(data)
			if err != nil {
				t.Fatalf("single-pass parser accepted what encoding/json rejects: %v", err)
			}
			if err := diffTiles(fast, ref); err != nil {
				t.Fatalf("single-pass and encoding/json decodings differ: %v", err)
			}
			vecs := append([][]float64(nil), fast.Data...)
			for _, vec := range fast.Signatures {
				vecs = append(vecs, vec)
			}
			for _, vec := range vecs {
				if cap(vec) > len(data) {
					t.Fatalf("vector of capacity %d from %d bytes of input", cap(vec), len(data))
				}
			}
		}
		tl, err := DecodeJSON(data)
		if err != nil {
			return
		}
		for _, a := range tl.Attrs {
			if _, err := tl.At(a, tl.Size-1, tl.Size-1); err != nil {
				t.Fatalf("decoded tile cannot be read: %v", err)
			}
		}
	})
}
