package tile

import (
	"bytes"
	"compress/flate"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
)

// MaxInflated bounds what DecodeGzip inflates a body to: room for a 1024²
// single-attribute tile, and a limit on what a hostile or broken peer can
// make a reader allocate.
const MaxInflated = 16 << 20

// Both ends of a gzipped tile body: the server compresses each body once,
// and every client and push stream inflates it. A flate.Writer costs ~1 MB
// and a gzip.Reader ~40 KB to build, so both are pooled and reset per body.
var (
	flateWriters = sync.Pool{New: func() any {
		fw, _ := flate.NewWriter(io.Discard, flate.BestSpeed)
		return fw
	}}
	gzipBufs  = sync.Pool{New: func() any { return new(bytes.Buffer) }}
	inflaters = sync.Pool{New: func() any { return new(inflater) }}
)

type inflater struct {
	zr  gzip.Reader
	src bytes.Reader
	out bytes.Buffer
}

const maxStored = 1<<16 - 1 // the most one deflate stored block carries

// Gzip compresses plain into one gzip member in an owned slice (the body
// outlives the pooled buffer in the encoded cache). Everything before an
// FCT3 body's raw section payload is deflated at BestSpeed as one run; the
// raw planes and the CRC trailer after it follow as stored blocks, which
// cost a copy at both ends and no Huffman tables. A body without a raw
// section, such as JSON, is deflated whole.
func Gzip(plain []byte) ([]byte, error) {
	split := rawTail(plain)
	buf, fw := gzipBufs.Get().(*bytes.Buffer), flateWriters.Get().(*flate.Writer)
	defer gzipBufs.Put(buf)
	defer flateWriters.Put(fw)
	buf.Reset()
	buf.Write([]byte{0x1f, 0x8b, 8, 0, 0, 0, 0, 0, 4, 255}) // compress/gzip's header at BestSpeed: XFL 4
	fw.Reset(buf)
	_, _ = fw.Write(plain[:split]) // Flush and Close report a failed Write
	tail, finish := plain[split:], fw.Close
	if len(tail) > 0 {
		finish = fw.Flush // a sync flush ends byte-aligned, ready for stored blocks
	}
	if err := finish(); err != nil {
		return nil, err
	}
	blocks := (len(tail) + maxStored - 1) / maxStored
	out := make([]byte, 0, buf.Len()+5*blocks+len(tail)+8)
	out = append(out, buf.Bytes()...)
	for len(tail) > 0 {
		n, final := min(len(tail), maxStored), byte(0)
		if n == len(tail) {
			final = 1 // BFINAL; BTYPE 00 is a stored block
		}
		out = append(out, final, byte(n), byte(n>>8), ^byte(n), ^byte(n>>8))
		out, tail = append(out, tail[:n]...), tail[n:]
	}
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(plain))
	return binary.LittleEndian.AppendUint32(out, uint32(len(plain))), nil
}

// rawTail returns the offset of plain's raw section payload when plain is
// an FCT3 body that has one, and len(plain) otherwise.
func rawTail(plain []byte) int {
	for off := len(binaryMagic); bytes.HasPrefix(plain, []byte(binaryMagic)) && off+8 <= len(plain); {
		id, ln := binary.LittleEndian.Uint32(plain[off:]), uint64(binary.LittleEndian.Uint32(plain[off+4:]))
		if off += 8; id == secRaw {
			return off
		} else if ln > uint64(len(plain)-off) {
			break
		}
		off += int(ln)
	}
	return len(plain)
}

// DecodeGzip inflates body, to at most MaxInflated bytes, and hands the
// result to decode (DecodeBinary or DecodeJSON). The inflated bytes return
// to the pool when decode does, so decode must copy what it keeps; both
// codecs do.
func DecodeGzip(body []byte, decode func([]byte) (*Tile, error)) (*Tile, error) {
	in := inflaters.Get().(*inflater)
	defer inflaters.Put(in)
	in.src.Reset(body)
	in.out.Reset()
	if err := in.zr.Reset(&in.src); err != nil {
		return nil, fmt.Errorf("gunzip: %w", err)
	}
	if n, err := in.out.ReadFrom(io.LimitReader(&in.zr, MaxInflated+1)); err != nil {
		return nil, fmt.Errorf("gunzip: %w", err)
	} else if n > MaxInflated {
		return nil, fmt.Errorf("gunzip: body inflates past %d bytes", MaxInflated)
	}
	return decode(in.out.Bytes())
}
