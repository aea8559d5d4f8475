package tile

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"slices"
	"strconv"
	"sync"
)

// Tile is one data tile: a Size x Size cell grid per attribute, plus the
// metadata (tile signatures) computed when the pyramid was built (paper
// §2.3 "Computing Metadata"). Tiles are immutable after construction.
type Tile struct {
	Coord Coord    `json:"coord"`
	Size  int      `json:"size"`
	Attrs []string `json:"attrs"`
	// Data holds one row-major Size*Size grid per attribute, parallel to
	// Attrs. NaN cells are empty (e.g. padding past the dataset edge).
	Data [][]float64 `json:"data"`
	// Signatures holds the data characteristics computed for this tile at
	// build time, keyed by signature name ("normal", "histogram", "sift",
	// "densesift"). Each is a flat numeric vector (paper §4.3.3).
	Signatures map[string][]float64 `json:"signatures,omitempty"`
}

// Grid returns the row-major cell grid of the named attribute.
func (t *Tile) Grid(attr string) ([]float64, error) {
	for i, a := range t.Attrs {
		if a == attr {
			return t.Data[i], nil
		}
	}
	return nil, fmt.Errorf("tile %s: no attribute %q", t.Coord, attr)
}

// Bytes estimates the main-memory footprint of the tile in bytes
// (Pyramid.MemBytes sums it). The estimate covers the struct itself, the
// grid and signature values, and the per-slice, per-string and
// per-map-entry overhead Go charges for them — not just the raw float
// payload, which undercounts tiles whose footprint is dominated by
// signature vectors and attribute names.
func (t *Tile) Bytes() int {
	const (
		structBytes  = 96 // the Tile struct: coord + size + three slice/map headers
		sliceHeader  = 24 // ptr+len+cap per grid / signature vector
		stringHeader = 16 // ptr+len per attribute name / signature key
		mapEntry     = 48 // amortized per-entry share of the Signatures hash map
	)
	n := structBytes
	for _, a := range t.Attrs {
		n += stringHeader + len(a)
	}
	for _, g := range t.Data {
		n += sliceHeader + len(g)*8
	}
	for name, vec := range t.Signatures {
		n += mapEntry + stringHeader + len(name) + sliceHeader + len(vec)*8
	}
	return n
}

// Stats summarizes one attribute of the tile (used by the Normal signature
// and by clients rendering color scales).
func (t *Tile) Stats(attr string) (mean, stddev, minv, maxv float64, count int, err error) {
	g, err := t.Grid(attr)
	if err != nil {
		return 0, 0, 0, 0, 0, err
	}
	minv, maxv = math.Inf(1), math.Inf(-1)
	var sum, sq float64
	for _, v := range g {
		if math.IsNaN(v) {
			continue
		}
		count++
		sum += v
		sq += v * v
		if v < minv {
			minv = v
		}
		if v > maxv {
			maxv = v
		}
	}
	if count == 0 {
		nan := math.NaN()
		return nan, nan, nan, nan, 0, nil
	}
	mean = sum / float64(count)
	variance := sq/float64(count) - mean*mean
	if variance < 0 {
		variance = 0
	}
	return mean, math.Sqrt(variance), minv, maxv, count, nil
}

// appendHead renders the fixed start of a tile's JSON; scanHead reads it back.
func appendHead(b []byte, c Coord, size int) []byte {
	b = strconv.AppendInt(append(b, `{"coord":{"level":`...), int64(c.Level), 10)
	b = strconv.AppendInt(append(b, `,"y":`...), int64(c.Y), 10)
	b = strconv.AppendInt(append(b, `,"x":`...), int64(c.X), 10)
	b = strconv.AppendInt(append(b, `},"size":`...), int64(size), 10)
	return append(b, `,"attrs":`...)
}

// MarshalJSON implements json.Marshaler with AppendJSON.
func (t *Tile) MarshalJSON() ([]byte, error) { return AppendJSON(nil, t) }

// AppendJSON appends the JSON encoding of t — NaN cells as null, which JSON
// can carry — to dst and returns the extended slice. Cells stream directly
// into the buffer; the output is byte-identical to the encoding/json
// rendering of jsonTile, so cached and reflected payloads agree.
func AppendJSON(dst []byte, t *Tile) ([]byte, error) {
	cells := 0
	for _, g := range t.Data {
		cells += len(g)
	}
	// ~24 bytes covers a formatted float64 plus its comma; the slack takes
	// the fixed fields, so the buffer almost never regrows.
	b := slices.Grow(dst, 24*cells+512)
	b = appendHead(b, t.Coord, t.Size)
	if t.Attrs == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, a := range t.Attrs {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendName(b, a)
		}
		b = append(b, ']')
	}
	b = append(b, `,"data":[`...)
	var err error
	for i, g := range t.Data {
		if i > 0 {
			b = append(b, ',')
		}
		if b, err = appendFloats(b, g, true); err != nil {
			return nil, err
		}
	}
	b = append(b, ']')
	if len(t.Signatures) > 0 {
		b = append(b, `,"signatures":{`...)
		for i, name := range slices.Sorted(maps.Keys(t.Signatures)) {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(appendName(b, name), ':')
			if vec := t.Signatures[name]; vec == nil {
				b = append(b, "null"...)
			} else if b, err = appendFloats(b, vec, false); err != nil {
				return nil, err
			}
		}
		b = append(b, '}')
	}
	return append(b, '}'), nil
}

// appendName appends s as a JSON string: verbatim when it is printable
// ASCII that encoding/json would not escape, through json.Marshal otherwise.
func appendName(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > '~' || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	return append(append(append(b, '"'), s...), '"')
}

// appendFloats appends vec as a JSON array. A NaN is null where nullNaN
// (grid cells); elsewhere it is an error, as an infinity is everywhere.
func appendFloats(b []byte, vec []float64, nullNaN bool) ([]byte, error) {
	b = append(b, '[')
	for j, v := range vec {
		if j > 0 {
			b = append(b, ',')
		}
		switch {
		case nullNaN && math.IsNaN(v):
			b = append(b, "null"...)
		case math.IsNaN(v) || math.IsInf(v, 0):
			return nil, fmt.Errorf("json: unsupported value: %g", v)
		default:
			b = appendFloat(b, v)
		}
	}
	return append(b, ']'), nil
}

// EncodeJSON returns the tile's canonical HTTP response body in the JSON
// wire format: MarshalJSON output plus the trailing newline json.Encoder
// has always appended to /tile responses. Every layer that memoizes JSON
// payloads (the serving tier's encoded cache, the push registry) caches
// exactly this body, so cached and uncached responses are byte-identical.
// The body is right-sized: AppendJSON's generous first guess goes back to a
// pool rather than into a cache entry.
func (t *Tile) EncodeJSON() ([]byte, error) {
	buf := jsonBufs.Get().(*[]byte)
	defer jsonBufs.Put(buf)
	b, err := AppendJSON((*buf)[:0], t)
	if err != nil {
		return nil, err
	}
	*buf = b
	return append(append(make([]byte, 0, len(b)+1), b...), '\n'), nil
}

var jsonBufs = sync.Pool{New: func() any { return new([]byte) }}

// DecodeJSON decodes a tile in the JSON wire format. A payload in exactly
// the compact shape AppendJSON writes (trailing whitespace allowed) is
// parsed in one pass, floats going straight into their []float64. Anything
// else — other key order, whitespace, unknown fields, escaped strings, null
// attrs, a number outside the JSON grammar or outside float64 — goes through
// encoding/json, which defines the accepted language and every error. Both
// ways the shape is checked before the tile is returned, as in DecodeBinary.
func DecodeJSON(b []byte) (t *Tile, err error) {
	if t = scanJSON(b); t == nil {
		t, err = reflectJSON(b)
	}
	if err == nil {
		err = t.checkShape()
	}
	if err != nil {
		return nil, err
	}
	return t, nil
}

// UnmarshalJSON decodes a tile written by MarshalJSON; see DecodeJSON.
func (t *Tile) UnmarshalJSON(b []byte) error {
	d, err := DecodeJSON(b)
	if err == nil {
		*t = *d
	}
	return err
}

// jsonTile mirrors Tile for encoding/json, which cannot carry NaN in a
// float64: cells are pointers so that null has somewhere to land.
type jsonTile struct {
	Coord      Coord                `json:"coord"`
	Size       int                  `json:"size"`
	Attrs      []string             `json:"attrs"`
	Data       [][]*float64         `json:"data"`
	Signatures map[string][]float64 `json:"signatures,omitempty"`
}

// reflectJSON is the encoding/json decoder: the only path for input
// scanJSON declines, and the oracle its fuzz test compares against.
func reflectJSON(b []byte) (*Tile, error) {
	var jt jsonTile
	if err := json.Unmarshal(b, &jt); err != nil {
		return nil, err
	}
	t := &Tile{Coord: jt.Coord, Size: jt.Size, Attrs: jt.Attrs, Signatures: jt.Signatures, Data: make([][]float64, len(jt.Data))}
	for i, row := range jt.Data {
		t.Data[i] = make([]float64, len(row))
		for j, p := range row {
			t.Data[i][j] = math.NaN()
			if p != nil {
				t.Data[i][j] = *p
			}
		}
	}
	return t, nil
}

// jsonScanner walks a payload token by token. bad is sticky: it is set where
// the input first departs from AppendJSON's rendering and read at the end.
type jsonScanner struct {
	rest []byte
	bad  bool
}

// scanJSON parses the canonical rendering and returns nil for anything else.
func scanJSON(b []byte) *Tile {
	s := &jsonScanner{rest: b}
	t := &Tile{Attrs: []string{}}
	var ok bool
	t.Coord, t.Size, ok = scanHead(s.upTo('['))
	s.bad = s.bad || !ok
	names := s.upTo(']')
	for more := len(names) > 0; more; {
		var tok []byte
		tok, names, more = bytes.Cut(names, []byte{','})
		t.Attrs = append(t.Attrs, s.unquote(tok))
	}
	s.expect(`,"data":[`)
	t.Data = make([][]float64, 0, len(t.Attrs))
	for sep := ``; !s.bad && !s.lit(`]`); sep = `,` {
		s.expect(sep)
		t.Data = append(t.Data, s.floats(true))
	}
	if s.lit(`,"signatures":{`) {
		t.Signatures = map[string][]float64{}
		for sep := ``; !s.bad && !s.lit(`}`); sep = `,` {
			s.expect(sep)
			name := s.unquote(s.upTo(':'))
			t.Signatures[name] = s.floats(false) // a repeated name: the last wins, as in encoding/json
		}
	}
	s.expect(`}`)
	if s.bad || len(bytes.TrimLeft(s.rest, " \t\r\n")) != 0 {
		return nil
	}
	return t
}

// scanHead reads the four integers of a head in order, each a run of
// digits with the minus sign before it. The head is canonical when they
// re-render to it; one with "+1", "01", "1_0" or a number too long to read
// cannot.
func scanHead(head []byte) (c Coord, size int, ok bool) {
	var v [4]int
	n := 0
	for i := 0; i < len(head); {
		if head[i] != '-' && head[i]-'0' >= 10 {
			i++
			continue
		}
		if n == len(v) {
			return c, 0, false
		}
		neg := head[i] == '-'
		if neg {
			i++
		}
		for digits := 0; i < len(head) && head[i]-'0' < 10 && digits < 18; i, digits = i+1, digits+1 {
			v[n] = v[n]*10 + int(head[i]-'0')
		}
		if neg {
			v[n] = -v[n]
		}
		n++
	}
	c, size = Coord{Level: v[0], Y: v[1], X: v[2]}, v[3]
	var buf [128]byte
	return c, size, n == len(v) && bytes.Equal(appendHead(buf[:0], c, size), head)
}

// lit steps past l if the input continues with it.
func (s *jsonScanner) lit(l string) (ok bool) {
	s.rest, ok = bytes.CutPrefix(s.rest, []byte(l))
	return ok
}

func (s *jsonScanner) expect(l string) { s.bad = s.bad || !s.lit(l) }

// upTo returns the input before the next delim and steps past both.
func (s *jsonScanner) upTo(delim byte) []byte {
	tok, rest, ok := bytes.Cut(s.rest, []byte{delim})
	s.rest, s.bad = rest, s.bad || !ok
	return tok
}

// unquote reads a string token of printable ASCII with no escapes;
// anything richer is encoding/json's to unquote.
func (s *jsonScanner) unquote(tok []byte) string {
	n := len(tok)
	if s.bad = s.bad || n < 2 || tok[0] != '"' || tok[n-1] != '"'; s.bad {
		return ""
	}
	for _, c := range tok[1 : n-1] {
		s.bad = s.bad || c < ' ' || c > '~' || c == '"' || c == '\\'
	}
	return string(tok[1 : n-1])
}

// floats reads one array of numbers, null reading as NaN where allowed
// (grid cells; encoding/json leaves a signature's null as 0). The vector is
// sized from the commas present, never from a size the payload declares.
// Each number is read in one pass by readFloat; strconv and jsonNumber
// decide the tokens it leaves.
func (s *jsonScanner) floats(null bool) []float64 {
	s.expect(`[`)
	body := s.upTo(']')
	out := make([]float64, 0, bytes.Count(body, []byte{','})+1)
	for more := len(body) > 0; more && !s.bad; {
		v, n, ok := readFloat(body)
		if !ok && null && bytes.HasPrefix(body, []byte("null")) {
			v, n, ok = math.NaN(), 4, true
		}
		if !ok || n < len(body) && body[n] != ',' {
			if n = bytes.IndexByte(body, ','); n < 0 {
				n = len(body)
			}
			var err error
			v, err = strconv.ParseFloat(string(body[:n]), 64)
			s.bad = s.bad || err != nil || !jsonNumber(body[:n]) // not a number, or one outside float64
		}
		out = append(out, v)
		more = n < len(body)
		body = body[min(n+1, len(body)):]
	}
	return out
}

// jsonNumber reports whether a token strconv converts is also a JSON number.
// strconv allows more: a leading "+" or ".", leading zeros, a bare "." ("1.",
// "1.e3"), hex ("0x1p-2"), "1_0", "Inf", "NaN". The alphabet excludes the last
// four; the digit required first and after every "." excludes the rest.
func jsonNumber(tok []byte) bool {
	if len(tok) > 0 && tok[0] == '-' {
		tok = tok[1:]
	}
	digit := func(i int) bool { return i < len(tok) && tok[i]-'0' < 10 }
	if !digit(0) || tok[0] == '0' && digit(1) {
		return false
	}
	for i, c := range tok {
		if !(c-'0' < 10 || c == 'e' || c == 'E' || c == '+' || c == '-' || c == '.' && digit(i+1)) {
			return false
		}
	}
	return true
}

// ETag is c's tile's weak entity tag under a server epoch,
// W/"<epoch>.<level>.<y>.<x>": /tile answers with it and a client revalidates
// a pushed tile by it. Weak because it names the tile, not an encoding.
func ETag(epoch string, c Coord) string {
	return `W/"` + epoch + "." + strconv.Itoa(c.Level) + "." + strconv.Itoa(c.Y) + "." + strconv.Itoa(c.X) + `"`
}
