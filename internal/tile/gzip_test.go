package tile

import (
	"bytes"
	"compress/gzip"
	"io"
	"math"
	"sync"
	"testing"
)

// TestGzipRoundTripsBothCodecs: a gzipped body of either codec inflates
// back to its tile, and Gzip writes at BestSpeed (the gzip header's XFL
// byte is 4 for the fastest level).
func TestGzipRoundTripsBothCodecs(t *testing.T) {
	src := codecTile()
	bin, err := EncodeBinary(src)
	if err != nil {
		t.Fatal(err)
	}
	js, err := src.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		plain  []byte
		decode func([]byte) (*Tile, error)
	}{{"binary", bin, DecodeBinary}, {"json", js, DecodeJSON}} {
		gz, err := Gzip(tc.plain)
		if err != nil {
			t.Fatal(err)
		}
		if xfl := gz[8]; xfl != 4 {
			t.Errorf("%s: gzip XFL = %d, want 4 (BestSpeed)", tc.name, xfl)
		}
		zr, err := gzip.NewReader(bytes.NewReader(gz))
		if err != nil {
			t.Fatal(err)
		}
		if plain, err := io.ReadAll(zr); err != nil || !bytes.Equal(plain, tc.plain) {
			t.Fatalf("%s: a stock gzip reader gets %d bytes, %v; want the plain body", tc.name, len(plain), err)
		}
		got, err := DecodeGzip(gz, tc.decode)
		if err != nil {
			t.Fatalf("%s: DecodeGzip: %v", tc.name, err)
		}
		if !tilesEqual(got, src) {
			t.Errorf("%s: gzip round trip changed the tile", tc.name)
		}
	}
}

// TestGzipConcurrentUse: the server's encoded-cache misses and every client
// goroutine share the pooled writers and inflaters; under -race, concurrent
// round trips of different tiles each get their own tile back.
func TestGzipConcurrentUse(t *testing.T) {
	var wg sync.WaitGroup
	for w := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			src := realShapedTile()
			src.Coord = Coord{Level: 3, Y: w, X: w}
			src.Data[0][0] = float64(w)
			for range 20 {
				plain, err := EncodeBinary(src)
				if err == nil {
					plain, err = Gzip(plain)
				}
				got, err := DecodeGzip(plain, DecodeBinary)
				if err != nil || !tilesEqual(got, src) {
					t.Errorf("goroutine %d: round trip = %v, %v", w, got != nil, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestDecodeGzipKeepsNoAlias: the inflated bytes go back to the pool, so a
// decoded tile must own everything it holds — bodies inflated into the same
// buffer afterwards leave it unchanged, whichever codec decoded it.
func TestDecodeGzipKeepsNoAlias(t *testing.T) {
	src := codecTile()
	bin, _ := EncodeBinary(src)
	js, _ := src.EncodeJSON()
	other, _ := EncodeBinary(realShapedTile())
	overwrite, _ := Gzip(bytes.Repeat(other, 4))
	for _, tc := range []struct {
		plain  []byte
		decode func([]byte) (*Tile, error)
	}{{bin, DecodeBinary}, {js, DecodeJSON}} {
		gz, _ := Gzip(tc.plain)
		kept, err := DecodeGzip(gz, tc.decode)
		if err != nil {
			t.Fatal(err)
		}
		for range 4 {
			_, _ = DecodeGzip(overwrite, func([]byte) (*Tile, error) { return nil, nil })
		}
		if !tilesEqual(kept, src) {
			t.Error("a decoded tile changed when its pooled buffer was reused")
		}
	}
}

// TestGzipStoresRawPlanes: a 1024² tile's raw section spans many stored
// blocks and still round-trips through a stock gzip reader and DecodeGzip,
// and noisyTile's raw planes appear verbatim in its gzip body.
func TestGzipStoresRawPlanes(t *testing.T) {
	const side = 1024
	g := make([]float64, side*side)
	for i := range g {
		g[i] = math.Sin(float64(i)) * 1e3
	}
	big := &Tile{Coord: Coord{Level: 2, Y: 1, X: 3}, Size: side, Attrs: []string{"v"}, Data: [][]float64{g}}
	plain, err := EncodeBinary(big)
	if err != nil {
		t.Fatal(err)
	}
	if tail := len(plain) - rawTail(plain); tail < 4*maxStored {
		t.Fatalf("raw tail of %d B spans too few stored blocks", tail)
	}
	gz, err := Gzip(plain)
	if err != nil {
		t.Fatal(err)
	}
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := io.ReadAll(zr); err != nil || !bytes.Equal(got, plain) {
		t.Fatalf("stock gzip reader: %d B, %v; want the %d B body", len(got), err, len(plain))
	}
	if got, err := DecodeGzip(gz, DecodeBinary); err != nil || !tilesEqual(got, big) {
		t.Fatalf("DecodeGzip: %v", err)
	}
	plain, _ = EncodeBinary(noisyTile())
	gz, _ = Gzip(plain)
	split := rawTail(plain)
	if split == len(plain) {
		t.Fatal("noisyTile has no raw planes")
	}
	if !bytes.Contains(gz, plain[split:]) {
		t.Errorf("the %d raw bytes are not stored verbatim", len(plain)-split)
	}
}
