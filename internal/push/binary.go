package push

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"forecache/internal/tile"
)

// Binary framing: what GET /stream answers to a request naming
// tile.BinaryContentType. A frame's payload is the tile's memoized FCT3
// body, the very bytes /tile serves: pushing a tile costs a header and a
// copy. Layout (little-endian):
//
//	type u8 (1 tile, 2 heartbeat) | flags u8 (bit 0 backfill, bit 1 gzip)
//	| model length u16 | payload length u32 | seq u64 | score f64 bits
//	| level u32 | y u32 | x u32 | model bytes | payload bytes
//
// Strings are length-prefixed, so no byte needs escaping. The session id
// is not carried: a stream belongs to exactly one session.
const (
	// BinaryContentType is the media type of a binary frame stream.
	BinaryContentType = "application/x-forecache-stream"

	binaryHeaderLen = 36
	// maxBinaryPayload bounds a payload on the wire, as tile.DecodeGzip
	// bounds it after gunzip: a limit on what a hostile length can make the
	// client allocate.
	maxBinaryPayload = tile.MaxInflated

	binTypeTile      = 1
	binTypeHeartbeat = 2
	binFlagBackfill  = 1 << 0
	binFlagGzip      = 1 << 1
)

// AppendBinary appends f as one binary frame to dst. body is the tile's
// FCT3 encoding as /tile serves it — gzip-compressed when gz — copied
// verbatim; f.Tile and f.Payload are not consulted. Heartbeats carry
// nothing but their seq.
func AppendBinary(dst []byte, f Frame, body []byte, gz bool) ([]byte, error) {
	typ, flags := byte(binTypeTile), byte(0)
	switch {
	case f.Type == FrameHeartbeat:
		typ, f, body = binTypeHeartbeat, Frame{Seq: f.Seq}, nil
	case f.Type != FrameTile:
		return nil, fmt.Errorf("push: unknown frame type %q", f.Type)
	case len(body) == 0:
		return nil, fmt.Errorf("push: tile frame %s without a body", f.Coord)
	default:
		if f.Backfill {
			flags |= binFlagBackfill
		}
		if gz {
			flags |= binFlagGzip
		}
	}
	c := f.Coord
	if len(f.Model) > math.MaxUint16 || len(body) > maxBinaryPayload ||
		uint64(c.Level) > math.MaxUint32 || uint64(c.Y) > math.MaxUint32 || uint64(c.X) > math.MaxUint32 {
		return nil, fmt.Errorf("push: frame %s (model %d bytes, body %d bytes) outside the binary framing's bounds",
			c, len(f.Model), len(body))
	}
	b := append(dst, typ, flags)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(f.Model)))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(body)))
	b = binary.LittleEndian.AppendUint64(b, f.Seq)
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f.Score))
	b = binary.LittleEndian.AppendUint32(b, uint32(c.Level))
	b = binary.LittleEndian.AppendUint32(b, uint32(c.Y))
	b = binary.LittleEndian.AppendUint32(b, uint32(c.X))
	b = append(b, f.Model...)
	return append(b, body...), nil
}

// DecodeBinary reads the next binary frame off the stream, keeping its
// tile payload undecoded (see DecodeTile). It returns io.EOF only at a
// frame boundary; a stream that ends inside a frame, an unknown type or
// flag, and a payload length outside the format's bound (checked before
// anything is allocated) are errors — as with Decode, a reason to drop the
// stream and re-attach.
func DecodeBinary(r *bufio.Reader) (Frame, error) {
	var hdr [binaryHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return Frame{}, io.EOF
		}
		return Frame{}, fmt.Errorf("push: read frame header: %w", err)
	}
	typ, flags := hdr[0], hdr[1]
	modelLen := int(binary.LittleEndian.Uint16(hdr[2:]))
	bodyLen := binary.LittleEndian.Uint32(hdr[4:])
	f := Frame{
		Type:     FrameTile,
		Seq:      binary.LittleEndian.Uint64(hdr[8:]),
		Score:    math.Float64frombits(binary.LittleEndian.Uint64(hdr[16:])),
		Backfill: flags&binFlagBackfill != 0,
		Coord: tile.Coord{
			Level: int(binary.LittleEndian.Uint32(hdr[24:])),
			Y:     int(binary.LittleEndian.Uint32(hdr[28:])),
			X:     int(binary.LittleEndian.Uint32(hdr[32:])),
		},
	}
	switch {
	case flags&^(binFlagBackfill|binFlagGzip) != 0:
		return Frame{}, fmt.Errorf("push: unknown frame flags %#02x", flags)
	case typ == binTypeHeartbeat:
		if flags != 0 || modelLen != 0 || bodyLen != 0 {
			return Frame{}, fmt.Errorf("push: heartbeat frame carries a payload")
		}
		f.Type = FrameHeartbeat
		return f, nil
	case typ != binTypeTile:
		return Frame{}, fmt.Errorf("push: unknown frame type %d", typ)
	case bodyLen == 0 || bodyLen > maxBinaryPayload:
		return Frame{}, fmt.Errorf("push: frame payload of %d bytes outside (0, %d]", bodyLen, maxBinaryPayload)
	}
	buf := make([]byte, modelLen+int(bodyLen))
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Frame{}, fmt.Errorf("push: read frame payload: %w", err)
	}
	f.Model, f.body, f.gz = string(buf[:modelLen]), buf[modelLen:], flags&binFlagGzip != 0
	return f, nil
}
