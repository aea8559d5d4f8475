package tile

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"
	"slices"
	"sort"
)

// Binary wire codec for single tiles — the hot-path alternative to the
// JSON rendering on /tile. Grids travel as raw float64 bits, so NaN cells
// need no special casing (JSON spells them null) and every bit pattern
// round-trips. Layout (all integers little-endian):
//
//	magic "FCT3" (the trailing digit is the format version)
//	| sections: id u32 | length u32 | payload
//	| crc32 (IEEE) u32 over everything before it
//
// Sections:
//
//	header (id 1): level u32 | y u32 | x u32 | size u32 | nattrs u32
//	               | per attr: len u32 | UTF-8 bytes
//	data   (id 2): plane map, one byte per attr | every plane the map does
//	               not mark raw. Each grid is eight planes of size² bytes,
//	               most significant first: plane p holds byte 7−p of every
//	               cell's float64 bits in row-major order, and bit p of the
//	               attr's map byte marks it raw. Planes go attr-major.
//	sigs   (id 3): nsigs u32 | per signature, name-sorted: name len u32
//	               | name | vec len u32 | values f64; the section is
//	               omitted entirely when the tile has no signatures
//	raw    (id 4): the raw planes, in the same order; present only when
//	               the map marks one
//
// Planes (version 2) set the sign/exponent bytes, which deflate well, apart
// from the mantissa noise, which does not. Version 3 moves that noise to the
// last section, so everything before its payload is one compressible run
// and Gzip stores the rest. A plane is raw when it holds more than 64
// distinct byte values and no other grid holds the same plane: a duplicate
// deflates to a back-reference, so both copies stay in the run.
//
// Readers skip unknown section ids (a newer writer may add sections) and
// reject duplicates, out-of-bound dimensions, non-canonical shapes, a plane
// map that disagrees with the section lengths and checksum mismatches.

const (
	// BinaryContentType is the HTTP media type the /tile endpoint and the
	// Go client negotiate to select this codec over JSON.
	BinaryContentType = "application/x-forecache-tile"

	binaryMagic = "FCT3"

	secHeader     = 1
	secData       = 2
	secSignatures = 3
	secRaw        = 4

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
// extended slice. The output size is computed up front (to within the raw
// section's 8-byte frame), so encoding into a nil dst costs a single
// allocation. Tiles outside the format's bounds (or with grids that don't
// match Size/Attrs, which the implied section lengths could not represent)
// are rejected so an encoded payload always decodes back.
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
	if n := uint64(len(t.Attrs)) * (1 + uint64(cells)*8); n > math.MaxUint32 {
		return nil, fmt.Errorf("tile %s: %d-byte data section overflows the format", t.Coord, n)
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
	// Raw planes only move between sections, so the size is known up to the
	// raw section's frame, which is reserved whether or not it is written.
	total := len(binaryMagic) + 8 + headerLen + 8 + len(t.Attrs)*(1+8*cells) + 8 + 4
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
	// The plane map is judged in place, where the data section will hold it.
	planeMap := b[len(b)+8 : len(b)+8+len(t.Attrs)]
	rawLen := markRawPlanes(planeMap, t.Data) * cells
	dataLen := len(planeMap) + 8*len(planeMap)*cells - rawLen
	b = binary.LittleEndian.AppendUint32(b, secData)
	b = binary.LittleEndian.AppendUint32(b, uint32(dataLen))
	planes := b[len(b)+len(planeMap) : len(b)+dataLen] // filled once raw is framed too
	b = b[:len(b)+dataLen]
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
	if rawLen > 0 {
		b = binary.LittleEndian.AppendUint32(b, secRaw)
		b = binary.LittleEndian.AppendUint32(b, uint32(rawLen))
	}
	raw := b[len(b) : len(b)+rawLen]
	b = b[:len(b)+rawLen]
	for a, g := range t.Data {
		p := cutPlanes(planeMap[a], len(g), &planes, &raw)
		p0, p1, p2, p3, p4, p5, p6, p7 := p[0], p[1], p[2], p[3], p[4], p[5], p[6], p[7]
		for c, v := range g {
			u := math.Float64bits(v)
			p0[c], p1[c], p2[c], p3[c] = byte(u>>56), byte(u>>48), byte(u>>40), byte(u>>32)
			p4[c], p5[c], p6[c], p7[c] = byte(u>>24), byte(u>>16), byte(u>>8), byte(u)
		}
	}
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b[start:]))
	return b, nil
}

// markRawPlanes sets bit p of m[a] when plane p of data[a] is noise, as the
// layout defines it, and returns how many bits it set.
func markRawPlanes(m []byte, data [][]float64) (n int) {
	for a, g := range data {
		var seen [8][256]uint8 // 1 for each byte value a plane holds
		for _, v := range g {
			u := math.Float64bits(v)
			seen[0][byte(u>>56)], seen[1][byte(u>>48)], seen[2][byte(u>>40)], seen[3][byte(u>>32)] = 1, 1, 1, 1
			seen[4][byte(u>>24)], seen[5][byte(u>>16)], seen[6][byte(u>>8)], seen[7][byte(u)] = 1, 1, 1, 1
		}
		m[a] = 0
		for p := range seen {
			distinct := 0
			for i := 0; i < len(seen[p]); i += 8 {
				distinct += bits.OnesCount64(binary.LittleEndian.Uint64(seen[p][i:]))
			}
			if distinct > 64 {
				m[a] |= 1 << p
			}
		}
	}
	for a, g := range data {
		for o := 0; o < len(data) && m[a] != 0; o++ {
			if o != a {
				m[a] &^= samePlanes(g, data[o])
			}
		}
		n += bits.OnesCount8(m[a])
	}
	return n
}

// samePlanes sets bit p when grids g and h hold the same plane p.
func samePlanes(g, h []float64) (same byte) {
	var diff uint64
	for c, v := range g {
		diff |= math.Float64bits(v) ^ math.Float64bits(h[c])
	}
	for p := range 8 {
		if byte(diff>>(56-8*p)) == 0 {
			same |= 1 << p
		}
	}
	return same
}

// cutPlanes returns a grid's eight n-byte planes, most significant first,
// each cut from the front of raw when bit p of m marks it raw and from the
// front of rest otherwise.
func cutPlanes(m byte, n int, rest, raw *[]byte) (p [8][]byte) {
	for j := range p {
		src := rest
		if m&(1<<j) != 0 {
			src = raw
		}
		p[j], *src = (*src)[:n], (*src)[n:]
	}
	return p
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
	// Known sections are kept by id and parsed once all are read: the grids
	// need the header's shape and both the data and the raw section. A
	// section, even an empty one, is a non-nil slice of data.
	var secs [secRaw + 1][]byte
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
		// Unknown sections are skipped: a newer writer may append sections
		// this reader doesn't know about.
		if id >= secHeader && id <= secRaw {
			if secs[id] != nil {
				return nil, fmt.Errorf("tile: duplicate section %d", id)
			}
			secs[id] = sec
		}
	}
	if secs[secHeader] == nil || secs[secData] == nil {
		return nil, fmt.Errorf("tile: binary payload missing required sections")
	}
	t := &Tile{}
	if err := decodeBinaryHeader(t, secs[secHeader]); err != nil {
		return nil, err
	}
	if err := decodeBinaryData(t, secs[secData], secs[secRaw]); err != nil {
		return nil, err
	}
	if secs[secSignatures] != nil {
		if err := decodeBinarySignatures(t, secs[secSignatures]); err != nil {
			return nil, err
		}
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

// decodeBinaryData assembles the grids from the data section and the raw
// section (nil when absent) once the header has fixed their shape.
func decodeBinaryData(t *Tile, sec, raw []byte) error {
	cells := t.Size * t.Size
	if len(sec) < len(t.Attrs) {
		return fmt.Errorf("tile %s: data section of %d bytes holds no plane map", t.Coord, len(sec))
	}
	planeMap, sec := sec[:len(t.Attrs)], sec[len(t.Attrs):]
	nraw := 0
	for _, m := range planeMap {
		nraw += bits.OnesCount8(m)
	}
	// A raw section must carry at least one plane: the canonical encoding
	// omits it otherwise.
	if (raw != nil && nraw == 0) || uint64(len(sec)) != uint64(8*len(t.Attrs)-nraw)*uint64(cells) || uint64(len(raw)) != uint64(nraw)*uint64(cells) {
		return fmt.Errorf("tile %s: %d data and %d raw plane bytes disagree with the plane map's %d raw planes", t.Coord, len(sec), len(raw), nraw)
	}
	t.Data = make([][]float64, len(t.Attrs))
	for i := range t.Data {
		p := cutPlanes(planeMap[i], cells, &sec, &raw)
		p0, p1, p2, p3, p4, p5, p6, p7 := p[0], p[1], p[2], p[3], p[4], p[5], p[6], p[7]
		g := make([]float64, cells)
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
