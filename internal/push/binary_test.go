package push

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"

	"forecache/internal/tile"
)

// binaryCase is one frame of the round-trip table with the wire options
// the handler would pick for it.
type binaryCase struct {
	name string
	f    Frame
	gz   bool
}

func binaryCases() []binaryCase {
	c := tile.Coord{Level: 2, Y: 3, X: 1}
	deep := tile.Coord{Level: 20, Y: 1<<20 - 1, X: 7}
	return []binaryCase{
		{name: "heartbeat", f: Frame{Type: FrameHeartbeat}},
		{name: "tile", f: Frame{Type: FrameTile, Seq: 1, Model: "markov3", Score: 0.75, Coord: c, Tile: testTile(c)}},
		{name: "tile gzip", gz: true, f: Frame{Type: FrameTile, Seq: 2, Model: "sb:sift", Score: 0.5, Coord: c, Tile: testTile(c)}},
		{name: "backfill", f: Frame{Type: FrameTile, Seq: 3, Model: "hotspot", Backfill: true, Coord: deep, Tile: testTile(deep)}},
		{name: "backfill gzip", gz: true, f: Frame{Type: FrameTile, Seq: 4, Backfill: true, Coord: deep, Tile: testTile(deep)}},
		{
			// Length-prefixed strings need no escaping: newlines, SSE field
			// syntax, quotes and NULs ride as they are.
			name: "hostile model", gz: true,
			f: Frame{
				Type: FrameTile, Seq: math.MaxUint64, Model: "m\no\rd\"el\x00\n\nevent: tile\ndata: {}",
				Score: math.Inf(-1), Coord: c, Tile: testTile(c),
			},
		},
	}
}

// tileBody is the body the server's encoded cache would hold for t.
func tileBody(t testing.TB, tl *tile.Tile, gz bool) []byte {
	t.Helper()
	if tl == nil {
		return nil
	}
	body, err := tile.EncodeBinary(tl)
	if err != nil {
		t.Fatal(err)
	}
	if !gz {
		return body
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(body); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func appendCase(t testing.TB, dst []byte, bc binaryCase) []byte {
	t.Helper()
	out, err := AppendBinary(dst, bc.f, tileBody(t, bc.f.Tile, bc.gz), bc.gz)
	if err != nil {
		t.Fatalf("%s: AppendBinary: %v", bc.name, err)
	}
	return out
}

func TestBinaryFrameRoundTrip(t *testing.T) {
	cases := binaryCases()
	var stream []byte
	for _, bc := range cases {
		stream = appendCase(t, stream, bc)
	}
	r := bufio.NewReader(bytes.NewReader(stream))
	for _, bc := range cases {
		got, err := DecodeBinary(r)
		if err != nil {
			t.Fatalf("%s: DecodeBinary: %v", bc.name, err)
		}
		if got.gz != bc.gz {
			t.Fatalf("%s: gzip flag %v, want %v", bc.name, got.gz, bc.gz)
		}
		if bc.f.Tile != nil {
			if got.Tile, err = got.DecodeTile(); err != nil {
				t.Fatalf("%s: DecodeTile: %v", bc.name, err)
			}
			got.body, got.gz = nil, false
		}
		if !reflect.DeepEqual(got, bc.f) {
			t.Fatalf("%s:\n got %+v\nwant %+v", bc.name, got, bc.f)
		}
	}
	if _, err := DecodeBinary(r); err != io.EOF {
		t.Fatalf("DecodeBinary at the end of the stream: %v, want io.EOF", err)
	}
}

// TestBinaryFrameTruncation cuts every valid frame at every length: only
// the cut at 0 is a clean end of stream, every other one an error.
func TestBinaryFrameTruncation(t *testing.T) {
	for _, bc := range binaryCases() {
		raw := appendCase(t, nil, bc)
		for cut := 0; cut < len(raw); cut++ {
			_, err := DecodeBinary(bufio.NewReader(bytes.NewReader(raw[:cut])))
			if cut == 0 && err != io.EOF {
				t.Fatalf("%s: empty stream: %v, want io.EOF", bc.name, err)
			}
			if cut > 0 && (err == nil || err == io.EOF) {
				t.Fatalf("%s: cut at %d of %d: err = %v, want a framing error", bc.name, cut, len(raw), err)
			}
		}
	}
}

func TestBinaryFrameRejects(t *testing.T) {
	c := tile.Coord{Level: 2, Y: 3, X: 1}
	valid := appendCase(t, nil, binaryCase{f: Frame{Type: FrameTile, Seq: 1, Model: "m", Coord: c, Tile: testTile(c)}})
	mutate := func(fn func(b []byte) []byte) []byte { return fn(bytes.Clone(valid)) }
	other := tile.Coord{Level: 2, Y: 3, X: 2}
	// consume marks the cases whose framing is intact: DecodeBinary reads
	// them, and DecodeTile rejects their tile.
	cases := []struct {
		name, want string
		raw        []byte
		consume    bool
	}{
		{"unknown type", "unknown frame type", mutate(func(b []byte) []byte { b[0] = 9; return b }), false},
		{"unknown flag", "unknown frame flags", mutate(func(b []byte) []byte { b[1] |= 1 << 7; return b }), false},
		{"empty tile frame", "outside (0,", mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[4:], 0)
			return b
		}), false},
		{"heartbeat with payload", "heartbeat frame carries", mutate(func(b []byte) []byte { b[0] = binTypeHeartbeat; return b }), false},
		// Rejected on the length alone: there is no payload behind the
		// header, so a decoder that allocated first would report a short
		// read instead.
		{"oversized payload", "outside (0,", mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[4:], maxBinaryPayload+1)
			return b[:binaryHeaderLen]
		}), false},
		{"4 GiB payload", "outside (0,", mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[4:], math.MaxUint32)
			return b[:binaryHeaderLen]
		}), false},
		{"header coord differs from the tile's", "carries tile", mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[32:], uint32(other.X))
			return b
		}), true},
		{"corrupt tile body", "checksum", mutate(func(b []byte) []byte { b[len(b)-9] ^= 0xff; return b }), true},
		{"gzip flag on a plain body", "gunzip", mutate(func(b []byte) []byte { b[1] |= binFlagGzip; return b }), true},
	}
	for _, tc := range cases {
		f, err := DecodeBinary(bufio.NewReader(bytes.NewReader(tc.raw)))
		if tc.consume {
			if err != nil {
				t.Errorf("%s: DecodeBinary refused intact framing: %v", tc.name, err)
				continue
			}
			_, err = f.DecodeTile()
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one naming %q", tc.name, err, tc.want)
		}
		if errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("%s: rejected only by running out of input: %v", tc.name, err)
		}
	}
}

// TestBinaryFrameInflateBound: a body that gunzips past the payload bound
// is refused at consume without being inflated whole.
func TestBinaryFrameInflateBound(t *testing.T) {
	var bomb bytes.Buffer
	zw := gzip.NewWriter(&bomb)
	if _, err := zw.Write(make([]byte, maxBinaryPayload+2)); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	c := tile.Coord{Level: 1}
	raw, err := AppendBinary(nil, Frame{Type: FrameTile, Coord: c}, bomb.Bytes(), true)
	if err != nil {
		t.Fatal(err)
	}
	f, err := DecodeBinary(bufio.NewReader(bytes.NewReader(raw)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.DecodeTile(); err == nil || !strings.Contains(err.Error(), "inflates past") {
		t.Fatalf("err = %v, want the inflate bound", err)
	}
}

func TestAppendBinaryRejects(t *testing.T) {
	c := tile.Coord{Level: 1}
	body := tileBody(t, testTile(c), false)
	cases := []struct {
		name string
		f    Frame
		body []byte
	}{
		{"unknown type", Frame{Type: "exploit"}, body},
		{"tile without a body", Frame{Type: FrameTile, Coord: c}, nil},
		{"negative coord", Frame{Type: FrameTile, Coord: tile.Coord{Level: -1}}, body},
		{"model over 64 KiB", Frame{Type: FrameTile, Coord: c, Model: strings.Repeat("m", math.MaxUint16+1)}, body},
	}
	for _, tc := range cases {
		dst := []byte("kept")
		if out, err := AppendBinary(dst, tc.f, tc.body, false); err == nil {
			t.Errorf("%s: AppendBinary accepted it (%d bytes)", tc.name, len(out))
		}
	}
}

func FuzzDecodeBinaryFrame(f *testing.F) {
	for _, bc := range binaryCases() {
		f.Add(appendCase(f, nil, bc))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		r := bufio.NewReader(bytes.NewReader(raw))
		for i := 0; i < 16; i++ {
			got, err := DecodeBinary(r)
			if err != nil {
				return
			}
			if got.Type != FrameTile {
				continue
			}
			// A tile frame carries a payload within the bound, and it decodes
			// to a tile for the frame's own coordinate, or to an error.
			if len(got.body) == 0 || len(got.body) > maxBinaryPayload {
				t.Fatalf("accepted a tile frame with a %d-byte payload", len(got.body))
			}
			if tl, err := got.DecodeTile(); err == nil && tl.Coord != got.Coord {
				t.Fatalf("DecodeTile returned %v for a frame at %v", tl.Coord, got.Coord)
			}
		}
	})
}
