package tile

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
	"sort"
)

// Binary wire codec for single tiles — the hot-path alternative to the
// JSON rendering on /tile. Grids travel as raw float64 bits, so NaN cells
// need no special casing (JSON spells them null) and every bit pattern
// round-trips. Layout (all integers little-endian):
//
//	magic "FCT2" (the trailing digit is the format version)
//	| sections: id u32 | length u32 | payload
//	| crc32 (IEEE) u32 over everything before it
//
// Sections:
//
//	header (id 1): level u32 | y u32 | x u32 | size u32 | nattrs u32
//	               | per attr: len u32 | UTF-8 bytes
//	data   (id 2): per attr, its size² float64 bit patterns as eight byte
//	               planes, most significant first: plane p holds byte 7−p
//	               of every cell in row-major order
//	sigs   (id 3): nsigs u32 | per signature, name-sorted: name len u32
//	               | name | vec len u32 | values f64; the section is
//	               omitted entirely when the tile has no signatures
//
// The planes are version 2's one change: they set the sign/exponent bytes,
// which deflate well, apart from the mantissa noise, which does not, so a
// gzip.BestSpeed body is smaller than the default level's on cell order.
//
// Readers skip unknown section ids (a newer writer may add sections) and
// reject duplicates, out-of-bound dimensions, non-canonical shapes and
// checksum mismatches.

const (
	// BinaryContentType is the HTTP media type the /tile endpoint and the
	// Go client negotiate to select this codec over JSON.
	BinaryContentType = "application/x-forecache-tile"

	binaryMagic = "FCT2"

	secHeader     = 1
	secData       = 2
	secSignatures = 3

	maxBinaryAttrs  = 1 << 12
	maxBinaryString = 1 << 20
	maxBinarySigs   = 64
	maxBinarySigLen = 1 << 20
	maxBinaryLevel  = 24
	// maxTileSize bounds the per-side cell count the codec carries. The
	// encoder and decoder enforce it symmetrically: anything EncodeBinary
	// accepts, DecodeBinary reads back.
	maxTileSize = 1024
)

// EncodeBinary renders t in the binary wire format.
func EncodeBinary(t *Tile) ([]byte, error) {
	return AppendBinary(nil, t)
}

// AppendBinary appends the binary encoding of t to dst and returns the
// extended slice. The exact output size is computed up front, so encoding
// into a nil dst costs a single allocation. Tiles outside the format's
// bounds (or with grids that don't match Size/Attrs, which the implied
// section lengths could not represent) are rejected so an encoded payload
// always decodes back.
func AppendBinary(dst []byte, t *Tile) ([]byte, error) {
	if err := t.checkShape(); err != nil {
		return nil, err
	}
	if !binaryCoordValid(t.Coord) {
		return nil, fmt.Errorf("tile: coordinate %s outside the codec's bounds", t.Coord)
	}
	if len(t.Attrs) > maxBinaryAttrs {
		return nil, fmt.Errorf("tile %s: %d attributes over the codec's %d bound", t.Coord, len(t.Attrs), maxBinaryAttrs)
	}
	cells := t.Size * t.Size
	headerLen := 5 * 4
	for _, a := range t.Attrs {
		if len(a) > maxBinaryString {
			return nil, fmt.Errorf("tile %s: attribute name of %d bytes over the codec's %d bound", t.Coord, len(a), maxBinaryString)
		}
		headerLen += 4 + len(a)
	}
	dataLen := uint64(len(t.Attrs)) * uint64(cells) * 8
	if dataLen > math.MaxUint32 {
		return nil, fmt.Errorf("tile %s: %d-byte data section overflows the format", t.Coord, dataLen)
	}
	sigLen := 0
	var names []string
	if len(t.Signatures) > 0 {
		if len(t.Signatures) > maxBinarySigs {
			return nil, fmt.Errorf("tile %s: %d signatures over the codec's %d bound", t.Coord, len(t.Signatures), maxBinarySigs)
		}
		names = make([]string, 0, len(t.Signatures))
		sigLen = 4
		for name, vec := range t.Signatures {
			if len(name) > maxBinaryString {
				return nil, fmt.Errorf("tile %s: signature name of %d bytes over the codec's %d bound", t.Coord, len(name), maxBinaryString)
			}
			if len(vec) > maxBinarySigLen {
				return nil, fmt.Errorf("tile %s: signature %q of %d values over the codec's %d bound", t.Coord, name, len(vec), maxBinarySigLen)
			}
			names = append(names, name)
			sigLen += 4 + len(name) + 4 + len(vec)*8
		}
		sort.Strings(names)
	}
	total := len(binaryMagic) + 8 + headerLen + 8 + int(dataLen) + 4
	if sigLen > 0 {
		total += 8 + sigLen
	}

	b := slices.Grow(dst, total)
	start := len(b)
	b = append(b, binaryMagic...)
	b = binary.LittleEndian.AppendUint32(b, secHeader)
	b = binary.LittleEndian.AppendUint32(b, uint32(headerLen))
	b = binary.LittleEndian.AppendUint32(b, uint32(t.Coord.Level))
	b = binary.LittleEndian.AppendUint32(b, uint32(t.Coord.Y))
	b = binary.LittleEndian.AppendUint32(b, uint32(t.Coord.X))
	b = binary.LittleEndian.AppendUint32(b, uint32(t.Size))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(t.Attrs)))
	for _, a := range t.Attrs {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(a)))
		b = append(b, a...)
	}
	b = binary.LittleEndian.AppendUint32(b, secData)
	b = binary.LittleEndian.AppendUint32(b, uint32(dataLen))
	for _, g := range t.Data {
		a, n := b[len(b):len(b)+8*len(g)], len(g)
		p0, p1, p2, p3 := a[:n], a[n:][:n], a[2*n:][:n], a[3*n:][:n]
		p4, p5, p6, p7 := a[4*n:][:n], a[5*n:][:n], a[6*n:][:n], a[7*n:][:n]
		for c, v := range g {
			u := math.Float64bits(v)
			p0[c], p1[c], p2[c], p3[c] = byte(u>>56), byte(u>>48), byte(u>>40), byte(u>>32)
			p4[c], p5[c], p6[c], p7[c] = byte(u>>24), byte(u>>16), byte(u>>8), byte(u)
		}
		b = b[:len(b)+8*n]
	}
	if sigLen > 0 {
		b = binary.LittleEndian.AppendUint32(b, secSignatures)
		b = binary.LittleEndian.AppendUint32(b, uint32(sigLen))
		b = binary.LittleEndian.AppendUint32(b, uint32(len(names)))
		for _, name := range names {
			b = binary.LittleEndian.AppendUint32(b, uint32(len(name)))
			b = append(b, name...)
			vec := t.Signatures[name]
			b = binary.LittleEndian.AppendUint32(b, uint32(len(vec)))
			for _, v := range vec {
				b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
			}
		}
	}
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b[start:]))
	return b, nil
}

// DecodeBinary reconstructs a tile encoded with EncodeBinary. The payload
// is untrusted input (it arrives over HTTP): every length is bounded
// before allocation and the CRC32 trailer is verified before any section
// is parsed.
func DecodeBinary(data []byte) (*Tile, error) {
	if len(data) < len(binaryMagic)+4 {
		return nil, fmt.Errorf("tile: binary payload of %d bytes too short", len(data))
	}
	if string(data[:len(binaryMagic)]) != binaryMagic {
		return nil, fmt.Errorf("tile: bad binary magic %q", data[:len(binaryMagic)])
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(trailer); got != want {
		return nil, fmt.Errorf("tile: binary payload checksum mismatch (%08x != %08x)", got, want)
	}
	t := &Tile{}
	var sawHeader, sawData, sawSigs bool
	rest := body[len(binaryMagic):]
	for len(rest) > 0 {
		if len(rest) < 8 {
			return nil, fmt.Errorf("tile: truncated section frame (%d bytes)", len(rest))
		}
		id := binary.LittleEndian.Uint32(rest[:4])
		ln := binary.LittleEndian.Uint32(rest[4:8])
		rest = rest[8:]
		if uint64(ln) > uint64(len(rest)) {
			return nil, fmt.Errorf("tile: section %d length %d overruns payload", id, ln)
		}
		sec := rest[:ln]
		rest = rest[ln:]
		switch id {
		case secHeader:
			if sawHeader {
				return nil, fmt.Errorf("tile: duplicate header section")
			}
			sawHeader = true
			if err := decodeBinaryHeader(t, sec); err != nil {
				return nil, err
			}
		case secData:
			if sawData {
				return nil, fmt.Errorf("tile: duplicate data section")
			}
			if !sawHeader {
				return nil, fmt.Errorf("tile: data section before header")
			}
			sawData = true
			if err := decodeBinaryData(t, sec); err != nil {
				return nil, err
			}
		case secSignatures:
			if sawSigs {
				return nil, fmt.Errorf("tile: duplicate signatures section")
			}
			sawSigs = true
			if err := decodeBinarySignatures(t, sec); err != nil {
				return nil, err
			}
		default:
			// Unknown sections are skipped: a newer writer may append
			// sections this reader doesn't know about.
		}
	}
	if !sawHeader || !sawData {
		return nil, fmt.Errorf("tile: binary payload missing required sections")
	}
	return t, nil
}

// checkShape reports a tile whose grids do not match what it declares: a Size
// outside (0, maxTileSize], or anything but one Size×Size grid per attribute.
// Grid and At index on that promise, so AppendBinary and DecodeJSON refuse such
// a tile here, and DecodeBinary from its section lengths before it allocates.
func (t *Tile) checkShape() error {
	if t.Size <= 0 || t.Size > maxTileSize {
		return fmt.Errorf("tile %s: size %d outside the codec's (0, %d] bound", t.Coord, t.Size, maxTileSize)
	}
	if len(t.Data) != len(t.Attrs) {
		return fmt.Errorf("tile %s: %d grids for %d attributes", t.Coord, len(t.Data), len(t.Attrs))
	}
	for i, g := range t.Data {
		if len(g) != t.Size*t.Size {
			return fmt.Errorf("tile %s: grid %q has %d cells, want %d", t.Coord, t.Attrs[i], len(g), t.Size*t.Size)
		}
	}
	return nil
}

func binaryCoordValid(c Coord) bool {
	if c.Level < 0 || c.Level >= maxBinaryLevel {
		return false
	}
	side := 1 << c.Level
	return c.Y >= 0 && c.Y < side && c.X >= 0 && c.X < side
}

func decodeBinaryHeader(t *Tile, sec []byte) error {
	if len(sec) < 20 {
		return fmt.Errorf("tile: truncated header section (%d bytes)", len(sec))
	}
	lvl := binary.LittleEndian.Uint32(sec[0:4])
	y := binary.LittleEndian.Uint32(sec[4:8])
	x := binary.LittleEndian.Uint32(sec[8:12])
	size := binary.LittleEndian.Uint32(sec[12:16])
	nattrs := binary.LittleEndian.Uint32(sec[16:20])
	if size == 0 || size > maxTileSize {
		return fmt.Errorf("tile: corrupt size %d", size)
	}
	if nattrs > maxBinaryAttrs {
		return fmt.Errorf("tile: corrupt attribute count %d", nattrs)
	}
	c := Coord{Level: int(lvl), Y: int(y), X: int(x)}
	if !binaryCoordValid(c) {
		return fmt.Errorf("tile: corrupt coordinate %s", c)
	}
	t.Coord, t.Size = c, int(size)
	rest := sec[20:]
	attrs := make([]string, nattrs)
	for i := range attrs {
		if len(rest) < 4 {
			return fmt.Errorf("tile: truncated attribute name")
		}
		ln := binary.LittleEndian.Uint32(rest[:4])
		rest = rest[4:]
		if ln > maxBinaryString {
			return fmt.Errorf("tile: corrupt attribute name length %d", ln)
		}
		if uint64(ln) > uint64(len(rest)) {
			return fmt.Errorf("tile: truncated attribute name")
		}
		attrs[i] = string(rest[:ln])
		rest = rest[ln:]
	}
	if len(rest) != 0 {
		return fmt.Errorf("tile: %d trailing bytes in header section", len(rest))
	}
	t.Attrs = attrs
	return nil
}

func decodeBinaryData(t *Tile, sec []byte) error {
	cells := t.Size * t.Size
	if want := uint64(len(t.Attrs)) * uint64(cells) * 8; uint64(len(sec)) != want {
		return fmt.Errorf("tile %s: data section is %d bytes, want %d", t.Coord, len(sec), want)
	}
	t.Data = make([][]float64, len(t.Attrs))
	for i := range t.Data {
		a, n := sec[i*cells*8:], cells
		p0, p1, p2, p3 := a[:n], a[n:][:n], a[2*n:][:n], a[3*n:][:n]
		p4, p5, p6, p7 := a[4*n:][:n], a[5*n:][:n], a[6*n:][:n], a[7*n:][:n]
		g := make([]float64, n)
		for c := range g {
			g[c] = math.Float64frombits(uint64(p0[c])<<56 | uint64(p1[c])<<48 | uint64(p2[c])<<40 | uint64(p3[c])<<32 |
				uint64(p4[c])<<24 | uint64(p5[c])<<16 | uint64(p6[c])<<8 | uint64(p7[c]))
		}
		t.Data[i] = g
	}
	return nil
}

func decodeBinarySignatures(t *Tile, sec []byte) error {
	if len(sec) < 4 {
		return fmt.Errorf("tile: truncated signatures section")
	}
	n := binary.LittleEndian.Uint32(sec[:4])
	rest := sec[4:]
	// n == 0 is rejected too: the canonical encoding omits the section
	// entirely for signature-free tiles, and decode(encode(t)) should be a
	// fixed point.
	if n == 0 || n > maxBinarySigs {
		return fmt.Errorf("tile: corrupt signature count %d", n)
	}
	sigs := make(map[string][]float64, n)
	for i := uint32(0); i < n; i++ {
		if len(rest) < 4 {
			return fmt.Errorf("tile: truncated signature name")
		}
		nameLen := binary.LittleEndian.Uint32(rest[:4])
		rest = rest[4:]
		if nameLen > maxBinaryString {
			return fmt.Errorf("tile: corrupt signature name length %d", nameLen)
		}
		if uint64(nameLen) > uint64(len(rest)) {
			return fmt.Errorf("tile: truncated signature name")
		}
		name := string(rest[:nameLen])
		rest = rest[nameLen:]
		if len(rest) < 4 {
			return fmt.Errorf("tile: truncated signature vector")
		}
		vecLen := binary.LittleEndian.Uint32(rest[:4])
		rest = rest[4:]
		if vecLen > maxBinarySigLen {
			return fmt.Errorf("tile: corrupt signature length %d", vecLen)
		}
		if uint64(vecLen)*8 > uint64(len(rest)) {
			return fmt.Errorf("tile: truncated signature vector")
		}
		vec := make([]float64, vecLen)
		for v := range vec {
			vec[v] = math.Float64frombits(binary.LittleEndian.Uint64(rest[v*8:]))
		}
		rest = rest[vecLen*8:]
		if _, dup := sigs[name]; dup {
			return fmt.Errorf("tile: duplicate signature %q", name)
		}
		sigs[name] = vec
	}
	if len(rest) != 0 {
		return fmt.Errorf("tile: %d trailing bytes in signatures section", len(rest))
	}
	t.Signatures = sigs
	return nil
}
