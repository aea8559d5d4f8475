package tile

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"forecache/internal/array"
	"forecache/internal/modis"
)

// diffTiles compares two decodings of one payload bit for bit: NaN-aware
// (Float64bits on every cell) and strict about which slices and maps are
// nil, since callers can tell the difference.
func diffTiles(a, b *Tile) error {
	if a.Coord != b.Coord || a.Size != b.Size {
		return fmt.Errorf("coord/size %v/%d != %v/%d", a.Coord, a.Size, b.Coord, b.Size)
	}
	if (a.Attrs == nil) != (b.Attrs == nil) || len(a.Attrs) != len(b.Attrs) {
		return fmt.Errorf("attrs %#v != %#v", a.Attrs, b.Attrs)
	}
	for i := range a.Attrs {
		if a.Attrs[i] != b.Attrs[i] {
			return fmt.Errorf("attr %d: %q != %q", i, a.Attrs[i], b.Attrs[i])
		}
	}
	vec := func(what string, x, y []float64) error {
		if (x == nil) != (y == nil) || len(x) != len(y) {
			return fmt.Errorf("%s: %#v != %#v", what, x, y)
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return fmt.Errorf("%s[%d]: %x != %x", what, i, math.Float64bits(x[i]), math.Float64bits(y[i]))
			}
		}
		return nil
	}
	if (a.Data == nil) != (b.Data == nil) || len(a.Data) != len(b.Data) {
		return fmt.Errorf("data: %d grids (nil %v) != %d (nil %v)", len(a.Data), a.Data == nil, len(b.Data), b.Data == nil)
	}
	for i := range a.Data {
		if err := vec(fmt.Sprintf("grid %d", i), a.Data[i], b.Data[i]); err != nil {
			return err
		}
	}
	if (a.Signatures == nil) != (b.Signatures == nil) || len(a.Signatures) != len(b.Signatures) {
		return fmt.Errorf("signatures %#v != %#v", a.Signatures, b.Signatures)
	}
	for name, x := range a.Signatures {
		y, ok := b.Signatures[name]
		if !ok {
			return fmt.Errorf("signature %q missing", name)
		}
		if err := vec("signature "+name, x, y); err != nil {
			return err
		}
	}
	return nil
}

// TestDecodeJSONRoundTripsPyramid: every tile of a small MODIS world
// survives EncodeJSON → DecodeJSON bit for bit, through the single-pass
// parser and not its fallback.
func TestDecodeJSONRoundTripsPyramid(t *testing.T) {
	ndsi, err := modis.BuildWorld(3, 64)
	if err != nil {
		t.Fatal(err)
	}
	attr := ndsi.Schema().Attrs[0]
	pyr, err := Build(ndsi, Params{TileSize: 16, Agg: array.AggAvg, Metadata: func(tl *Tile) map[string][]float64 {
		mean, sd, lo, hi, _, err := tl.Stats(attr)
		if err != nil {
			t.Fatal(err)
		}
		if math.IsNaN(mean) {
			return nil // an all-padding tile carries no signatures
		}
		return map[string][]float64{"normal": {mean, sd}, "range": {lo, hi, 1e-9 * mean, 1e22 * sd}}
	}})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	pyr.EachTile(func(tl *Tile) bool {
		n++
		body, err := tl.EncodeJSON()
		if err != nil {
			t.Fatal(err)
		}
		if scanJSON(body) == nil {
			t.Errorf("tile %s: canonical body fell back to encoding/json", tl.Coord)
		}
		got, err := DecodeJSON(body)
		if err != nil {
			t.Fatalf("tile %s: %v", tl.Coord, err)
		}
		if !tilesEqual(tl, got) {
			t.Errorf("tile %s did not round-trip", tl.Coord)
		}
		return true
	})
	if n != pyr.NumTiles() || n < 5 {
		t.Fatalf("visited %d of %d tiles", n, pyr.NumTiles())
	}
}

// TestDecodeJSONAllocsFlat: decoding allocates per slice, string and map,
// never per cell (the encoding/json mirror costs a pointer per cell: 1087
// allocations for this tile).
func TestDecodeJSONAllocsFlat(t *testing.T) {
	body, err := realShapedTile().EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(50, func() {
		if _, err := DecodeJSON(body); err != nil {
			t.Fatal(err)
		}
	})
	if got > 30 {
		t.Errorf("DecodeJSON of a 4-attribute 16x16 tile: %v allocations, want <= 30", got)
	}
}

// TestDecodeJSONFallsBackOnNonCanonicalInput: anything but AppendJSON's
// exact rendering is encoding/json's to decode, with the result it has
// always produced.
func TestDecodeJSONFallsBackOnNonCanonicalInput(t *testing.T) {
	canon, err := codecTile().MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var pretty bytes.Buffer
	if err := json.Indent(&pretty, canon, "", "  "); err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"pretty-printed": pretty.Bytes(),
		"reordered keys": reorderKeys(t, canon),
		"leading space":  append([]byte(" "), canon...),
		"unknown field":  bytes.Replace(canon, []byte(`"size":`), []byte(`"extra":1,"size":`), 1),
		"escaped string": bytes.Replace(canon, []byte(`"ndsi"`), []byte(`"nd\u0073i"`), 1),
	}
	want, err := DecodeJSON(canon)
	if err != nil {
		t.Fatal(err)
	}
	for name, in := range cases {
		if scanJSON(in) != nil {
			t.Errorf("%s: single-pass parser accepted non-canonical input", name)
		}
		if got, err := DecodeJSON(in); err != nil {
			t.Errorf("%s: %v", name, err)
		} else if err := diffTiles(got, want); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	// What encoding/json refuses stays refused: a float literal for an int.
	floatSize := bytes.Replace(canon, []byte(`"size":4`), []byte(`"size":4e0`), 1)
	if tl, err := DecodeJSON(floatSize); scanJSON(floatSize) != nil || err == nil {
		t.Errorf(`"size":4e0 decoded to %+v, want encoding/json's error`, tl)
	}
	// A tile with nil attrs marshals "attrs":null: the fallback's to read.
	bare := &Tile{Coord: Coord{Level: 1, Y: 1, X: 0}, Size: 1}
	body, err := bare.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeJSON(body)
	if err != nil || got.Coord != bare.Coord || got.Attrs != nil {
		t.Errorf("bare tile: got %+v, %v", got, err)
	}
}

// reorderKeys re-renders a JSON object through a map, which sorts its keys.
func reorderKeys(t testing.TB, obj []byte) []byte {
	var m map[string]json.RawMessage
	if err := json.Unmarshal(obj, &m); err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestDecodeJSONRejectsMalformedShapes: a tile whose grids do not match
// its Size and Attrs would panic Grid or At, so neither decode path lets
// one through — compact input takes the single-pass parser, indented
// input the fallback.
func TestDecodeJSONRejectsMalformedShapes(t *testing.T) {
	const head = `{"coord":{"level":0,"y":0,"x":0},"size":`
	cases := map[string]string{
		"missing grid": head + `16,"attrs":["a","b"],"data":[[1]]}`,
		"short grid":   head + `2,"attrs":["a"],"data":[[1,2,3]]}`,
		"zero size":    head + `0,"attrs":[],"data":[]}`,
		"oversize":     head + fmt.Sprint(maxTileSize+1) + `,"attrs":[],"data":[]}`,
	}
	for name, compact := range cases {
		if scanJSON([]byte(compact)) == nil {
			t.Errorf("%s: compact payload did not take the single-pass parser", name)
		}
		var indented bytes.Buffer
		if err := json.Indent(&indented, []byte(compact), "", " "); err != nil {
			t.Fatal(err)
		}
		for path, in := range map[string][]byte{"single-pass": []byte(compact), "fallback": indented.Bytes()} {
			if tl, err := DecodeJSON(in); err == nil {
				t.Errorf("%s (%s): decoded %+v, want a shape error", name, path, tl)
			}
			var tl Tile
			if err := json.Unmarshal(in, &tl); err == nil {
				t.Errorf("%s (%s): json.Unmarshal decoded a malformed tile", name, path)
			}
		}
	}
}
