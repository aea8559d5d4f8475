package tile

import (
	"bytes"
	"math"
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
	f.Add([]byte("FCT1"))
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
