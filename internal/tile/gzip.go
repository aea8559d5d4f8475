package tile

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"sync"
)

// MaxInflated bounds what DecodeGzip inflates a body to: room for a 1024²
// single-attribute tile, and a limit on what a hostile or broken peer can
// make a reader allocate.
const MaxInflated = 16 << 20

// Both ends of a gzipped tile body: the server compresses each body once,
// and every client and push stream inflates it. A gzip.Writer costs ~1 MB
// and a gzip.Reader ~40 KB to build, so both are pooled and reset per body.
var (
	gzipWriters = sync.Pool{New: func() any {
		zw, _ := gzip.NewWriterLevel(io.Discard, gzip.BestSpeed)
		return zw
	}}
	gzipBufs  = sync.Pool{New: func() any { return new(bytes.Buffer) }}
	inflaters = sync.Pool{New: func() any { return new(inflater) }}
)

type inflater struct {
	zr  gzip.Reader
	src bytes.Reader
	out bytes.Buffer
}

// Gzip compresses plain at gzip.BestSpeed into an owned slice (the body
// outlives the pooled buffer in the encoded cache). FCT2's byte planes are
// what make the fastest level pay; see the codec layout.
func Gzip(plain []byte) ([]byte, error) {
	buf, zw := gzipBufs.Get().(*bytes.Buffer), gzipWriters.Get().(*gzip.Writer)
	defer gzipBufs.Put(buf)
	defer gzipWriters.Put(zw)
	buf.Reset()
	zw.Reset(buf)
	_, _ = zw.Write(plain) // Close reports a failed Write
	if err := zw.Close(); err != nil {
		return nil, err
	}
	return bytes.Clone(buf.Bytes()), nil
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
