package tile

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"forecache/internal/array"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// codecTile is a deterministic tile exercising every section of the wire
// format: multiple attributes, NaN cells, negative/denormal/extreme floats
// and multiple signatures. It backs both the golden file and the
// cross-format tests, so changing it requires regenerating the fixture.
func codecTile() *Tile {
	return &Tile{
		Coord: Coord{Level: 3, Y: 5, X: 2},
		Size:  4,
		Attrs: []string{"ndsi", "snow_cover"},
		Data: [][]float64{
			{0, 1.5, -2.25, math.NaN(), 0.1, 1e-7, -1e21, 1e20, math.SmallestNonzeroFloat64, math.MaxFloat64, -0.000001, 42, math.NaN(), -0.5, 7, 1.0 / 3.0},
			{1, 0, math.NaN(), 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, math.Copysign(0, -1)},
		},
		Signatures: map[string][]float64{
			"normal": {0.25, 1.75},
			"hist":   {1, 2, 3, 4, 5},
		},
	}
}

// legacyMarshalJSON is the pre-codec MarshalJSON implementation (the
// per-cell *float64 mirror), kept as the byte-compatibility oracle for the
// streamed encoder and as the benchmark baseline.
func legacyMarshalJSON(t *Tile) ([]byte, error) {
	jt := jsonTile{Coord: t.Coord, Size: t.Size, Attrs: t.Attrs, Signatures: t.Signatures}
	jt.Data = make([][]*float64, len(t.Data))
	for i, g := range t.Data {
		row := make([]*float64, len(g))
		for j := range g {
			if !math.IsNaN(g[j]) {
				v := g[j]
				row[j] = &v
			}
		}
		jt.Data[i] = row
	}
	return json.Marshal(jt)
}

func TestMarshalJSONMatchesLegacy(t *testing.T) {
	tiles := map[string]*Tile{
		"full":    codecTile(),
		"no-sigs": {Coord: Coord{Level: 1, Y: 0, X: 1}, Size: 2, Attrs: []string{"v"}, Data: [][]float64{{1, math.NaN(), -3.5, 0}}},
		"empty":   {Coord: Coord{}, Size: 1, Attrs: nil, Data: nil},
		"empty-sigs": {Coord: Coord{}, Size: 1, Attrs: []string{"v"}, Data: [][]float64{{0.5}},
			Signatures: map[string][]float64{}},
		"escaped-attr": {Coord: Coord{}, Size: 1, Attrs: []string{"a<b&c"}, Data: [][]float64{{1}}},
	}
	for name, tl := range tiles {
		got, err := tl.MarshalJSON()
		if err != nil {
			t.Fatalf("%s: MarshalJSON: %v", name, err)
		}
		want, err := legacyMarshalJSON(tl)
		if err != nil {
			t.Fatalf("%s: legacy marshal: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: streamed JSON diverges from legacy:\n got %s\nwant %s", name, got, want)
		}
	}
}

func TestMarshalJSONMatchesLegacyQuick(t *testing.T) {
	f := func(a, b, c float64, exp int16, nan bool) bool {
		// Sweep the magnitude range that crosses encoding/json's 'f'/'e'
		// format switch points.
		scaled := c * math.Pow(10, float64(exp%25))
		cells := []float64{a, b, scaled, -scaled}
		if nan {
			cells[1] = math.NaN()
		}
		tl := &Tile{Coord: Coord{Level: 1, Y: 1, X: 0}, Size: 2, Attrs: []string{"v"}, Data: [][]float64{cells}}
		got, err1 := tl.MarshalJSON()
		want, err2 := legacyMarshalJSON(tl)
		if (err1 != nil) != (err2 != nil) {
			return false
		}
		return err1 != nil || bytes.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestMarshalJSONRejectsInf(t *testing.T) {
	tl := &Tile{Size: 1, Attrs: []string{"v"}, Data: [][]float64{{math.Inf(1)}}}
	if _, err := tl.MarshalJSON(); err == nil {
		t.Error("MarshalJSON accepted +Inf; legacy encoder rejected it")
	}
}

func TestEncodeJSONAppendsNewline(t *testing.T) {
	tl := codecTile()
	body, err := tl.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := tl.MarshalJSON()
	if !bytes.Equal(body, append(raw, '\n')) {
		t.Error("EncodeJSON is not MarshalJSON plus a trailing newline")
	}
}

// tilesEqual compares tiles with NaN-aware grid and signature equality.
func tilesEqual(a, b *Tile) bool {
	if a.Coord != b.Coord || a.Size != b.Size || !reflect.DeepEqual(a.Attrs, b.Attrs) {
		return false
	}
	if len(a.Data) != len(b.Data) || len(a.Signatures) != len(b.Signatures) {
		return false
	}
	eq := func(x, y []float64) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return false
			}
		}
		return true
	}
	for i := range a.Data {
		if !eq(a.Data[i], b.Data[i]) {
			return false
		}
	}
	for name, vec := range a.Signatures {
		if !eq(vec, b.Signatures[name]) {
			return false
		}
	}
	return true
}

func TestBinaryRoundTrip(t *testing.T) {
	pyr, err := Build(rawArray(t, 16), Params{TileSize: 8, Agg: array.AggAvg})
	if err != nil {
		t.Fatal(err)
	}
	pyr.ComputeMetadata(func(tl *Tile) map[string][]float64 {
		return map[string][]float64{"hist": {1, 2, 3}}
	})
	// Cells whose eight bytes all differ, across two attributes of 3×3 cells
	// (a plane is neither 8 nor a power of two bytes long), so an encoder
	// and decoder that disagree on plane order, byte order or stride cannot
	// round-trip every bit; TestBinaryGolden pins the order itself.
	nanPayload := math.Float64frombits(0x7ff4_dead_beef_0001) // a non-canonical NaN
	edge := &Tile{
		Coord: Coord{Level: 2, Y: 1, X: 3}, Size: 3, Attrs: []string{"a", "b"},
		Data: [][]float64{
			{nanPayload, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), 5e-324, math.MaxFloat64,
				math.Float64frombits(0x0123_4567_89ab_cdef), -math.MaxFloat64, math.Float64frombits(0x000f_ffff_ffff_ffff)},
			{math.Float64frombits(0xfedc_ba98_7654_3210), 1, -1, nanPayload, 0, 2.5e-308, -0.1, 1e300, math.Pi},
		},
	}
	tiles := []*Tile{codecTile(), edge}
	pyr.EachTile(func(tl *Tile) bool {
		tiles = append(tiles, tl)
		return true
	})
	for _, tl := range tiles {
		enc, err := EncodeBinary(tl)
		if err != nil {
			t.Fatalf("tile %s: EncodeBinary: %v", tl.Coord, err)
		}
		got, err := DecodeBinary(enc)
		if err != nil {
			t.Fatalf("tile %s: DecodeBinary: %v", tl.Coord, err)
		}
		if !tilesEqual(tl, got) {
			t.Errorf("tile %s: binary round trip mutated the tile", tl.Coord)
		}
		// Canonical form: re-encoding the decoded tile reproduces the bytes.
		enc2, err := EncodeBinary(got)
		if err != nil {
			t.Fatalf("tile %s: re-encode: %v", tl.Coord, err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Errorf("tile %s: re-encoded bytes differ", tl.Coord)
		}
	}
}

// TestBinaryGolden pins the wire format to committed fixture bytes so it
// cannot drift silently: any codec change that alters the encoding must
// regenerate the fixture (go test ./internal/tile -run Golden -update) and
// announce a format version bump.
func TestBinaryGolden(t *testing.T) {
	path := filepath.Join("testdata", "codec_golden_v2.bin")
	enc, err := EncodeBinary(codecTile())
	if err != nil {
		t.Fatal(err)
	}
	if *updateGolden {
		if err := os.WriteFile(path, enc, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden fixture (regenerate with -update): %v", err)
	}
	if !bytes.Equal(enc, golden) {
		t.Fatalf("EncodeBinary output diverged from the committed wire format (%d vs %d bytes); if intentional, bump the codec version and regenerate with -update", len(enc), len(golden))
	}
	dec, err := DecodeBinary(golden)
	if err != nil {
		t.Fatalf("DecodeBinary(golden): %v", err)
	}
	if !tilesEqual(dec, codecTile()) {
		t.Error("golden fixture no longer decodes to the reference tile")
	}
}

// TestCrossFormatEquivalence: the binary round trip and the JSON round trip
// land on the same tile, NaN cells and signatures included.
func TestCrossFormatEquivalence(t *testing.T) {
	src := codecTile()
	enc, err := EncodeBinary(src)
	if err != nil {
		t.Fatal(err)
	}
	fromBinary, err := DecodeBinary(enc)
	if err != nil {
		t.Fatal(err)
	}
	js, err := json.Marshal(src)
	if err != nil {
		t.Fatal(err)
	}
	var fromJSON Tile
	if err := json.Unmarshal(js, &fromJSON); err != nil {
		t.Fatal(err)
	}
	if !tilesEqual(fromBinary, &fromJSON) {
		t.Errorf("binary and JSON round trips disagree:\nbinary %+v\njson   %+v", fromBinary, &fromJSON)
	}
}

func TestDecodeBinaryRejectsCorruption(t *testing.T) {
	valid, err := EncodeBinary(codecTile())
	if err != nil {
		t.Fatal(err)
	}
	version1 := binaryMagic[:3] + "1" // the cell-interleaved format before byte planes
	reseal := func(b []byte) []byte {
		// Recompute the trailer so the mutation under test — not the
		// checksum — is what the decoder trips on.
		binary.LittleEndian.PutUint32(b[len(b)-4:], crc32.ChecksumIEEE(b[:len(b)-4]))
		return b
	}
	cases := map[string][]byte{
		"empty":       {},
		"short":       valid[:6],
		"bad magic":   append([]byte("NOPE"), valid[4:]...),
		"version 1":   reseal(append([]byte(version1), valid[4:]...)),
		"truncated":   valid[:len(valid)/2],
		"bit flip":    func() []byte { b := bytes.Clone(valid); b[len(b)/2] ^= 0x40; return b }(),
		"crc flip":    func() []byte { b := bytes.Clone(valid); b[len(b)-1] ^= 0xff; return b }(),
		"no sections": reseal([]byte(binaryMagic + "\x00\x00\x00\x00")),
		"huge size": func() []byte {
			b := bytes.Clone(valid)
			binary.LittleEndian.PutUint32(b[4+8+12:], 1<<31) // header size field
			return reseal(b)
		}(),
		"bad section len": func() []byte {
			b := bytes.Clone(valid)
			binary.LittleEndian.PutUint32(b[8:12], 1<<30) // header section length
			return reseal(b)
		}(),
		"dup header": func() []byte {
			// Duplicate the header section frame at the end of the body.
			b := bytes.Clone(valid[:len(valid)-4])
			hdrLen := binary.LittleEndian.Uint32(b[8:12])
			b = append(b, b[4:12+hdrLen]...)
			return reseal(append(b, 0, 0, 0, 0))
		}(),
	}
	for name, data := range cases {
		if _, err := DecodeBinary(data); err == nil {
			t.Errorf("%s: DecodeBinary accepted corrupt payload", name)
		}
	}
	// A version 1 body is refused by its magic, with its checksum intact,
	// rather than misread as planes.
	if _, err := DecodeBinary(cases["version 1"]); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("bad binary magic %q", version1)) {
		t.Errorf("version 1 body: err = %v, want bad magic", err)
	}
}

// TestDecodeBinarySkipsUnknownSections: a payload carrying a section id
// this reader doesn't know still decodes (forward compatibility).
func TestDecodeBinarySkipsUnknownSections(t *testing.T) {
	valid, err := EncodeBinary(codecTile())
	if err != nil {
		t.Fatal(err)
	}
	b := bytes.Clone(valid[:len(valid)-4])
	b = binary.LittleEndian.AppendUint32(b, 0xbeef) // unknown id
	b = binary.LittleEndian.AppendUint32(b, 3)
	b = append(b, "xyz"...)
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
	got, err := DecodeBinary(b)
	if err != nil {
		t.Fatalf("DecodeBinary with unknown section: %v", err)
	}
	if !tilesEqual(got, codecTile()) {
		t.Error("unknown section corrupted the decoded tile")
	}
}

func TestEncodeBinaryRejectsMalformedTiles(t *testing.T) {
	cases := map[string]*Tile{
		"zero size":     {Size: 0},
		"oversize":      {Size: maxTileSize + 1, Coord: Coord{}},
		"bad coord":     {Size: 2, Coord: Coord{Level: 1, Y: 5, X: 0}, Attrs: []string{"v"}, Data: [][]float64{make([]float64, 4)}},
		"grid mismatch": {Size: 2, Attrs: []string{"v"}, Data: [][]float64{{1, 2}}},
		"attr mismatch": {Size: 2, Attrs: []string{"v", "w"}, Data: [][]float64{make([]float64, 4)}},
	}
	for name, tl := range cases {
		if _, err := EncodeBinary(tl); err == nil {
			t.Errorf("%s: EncodeBinary accepted a malformed tile", name)
		}
	}
}

// TestStreamedMarshalAllocsFlat: the rewritten JSON encoder's allocation
// count must not scale with cell count — the legacy path allocated a
// *float64 per cell.
func TestStreamedMarshalAllocsFlat(t *testing.T) {
	mk := func(size int) *Tile {
		g := make([]float64, size*size)
		for i := range g {
			g[i] = float64(i) * 1.25
		}
		return &Tile{Coord: Coord{Level: 1, Y: 0, X: 0}, Size: size, Attrs: []string{"v"}, Data: [][]float64{g}}
	}
	small, large := mk(8), mk(64)
	allocs := func(tl *Tile) float64 {
		return testing.AllocsPerRun(50, func() {
			if _, err := tl.MarshalJSON(); err != nil {
				t.Fatal(err)
			}
		})
	}
	a8, a64 := allocs(small), allocs(large)
	// 64x the cells must not cost meaningfully more allocations; allow a
	// small constant for buffer regrowth slack.
	if a64 > a8+4 {
		t.Errorf("allocs scale with cell count: %v for 64 cells vs %v for 4096", a8, a64)
	}
}

func TestTileBytesCountsEverything(t *testing.T) {
	base := &Tile{Size: 4, Attrs: []string{"v"}, Data: [][]float64{make([]float64, 16)}}
	withSigs := &Tile{Size: 4, Attrs: []string{"v"}, Data: [][]float64{make([]float64, 16)},
		Signatures: map[string][]float64{"normal": make([]float64, 10)}}
	if base.Bytes() <= 16*8 {
		t.Errorf("Bytes = %d, want > raw grid payload", base.Bytes())
	}
	// The signature must be charged for at least its values, its key and
	// the map entry.
	if diff := withSigs.Bytes() - base.Bytes(); diff < 10*8+len("normal") {
		t.Errorf("signatures add only %d bytes to the estimate", diff)
	}
	withAttrs := &Tile{Size: 4, Attrs: []string{"a_rather_long_attribute_name"}, Data: [][]float64{make([]float64, 16)}}
	if withAttrs.Bytes() <= base.Bytes() {
		t.Error("attribute name bytes not counted")
	}
}
