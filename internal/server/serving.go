package server

import (
	"bytes"
	"compress/gzip"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"forecache/internal/tile"
)

// Tile response serving: every /tile body is the tile's canonical encoding
// (Tile.EncodeJSON, or tile.EncodeBinary when negotiated) written in one
// Write with its Content-Length. With an encoded-payload cache attached
// (Config.Encoded) the handler additionally negotiates the wire format
// from the request headers and answers with memoized bytes — the tile is
// encoded at most once per (format, compression) for its cache lifetime.

// jsonBodyPool holds the buffers uncached JSON bodies are encoded into: a
// body is dead once Write returns, so the next response reuses its bytes.
var jsonBodyPool = sync.Pool{New: func() any { return new([]byte) }}

// writeTile answers a /tile request with t's payload. Without the encoded
// cache that is the plain JSON body, encoded per request into a pooled
// buffer; with it, the memoized body in the negotiated format, whose
// plain-JSON rendering (no Accept header, no gzip) is byte-identical to
// the uncached one.
func (s *Server) writeTile(w http.ResponseWriter, r *http.Request, c tile.Coord, t *tile.Tile) {
	h := w.Header()
	format, gz := tile.FormatJSON, false
	var payload []byte
	var err error
	if s.cfg.Encoded == nil {
		buf := jsonBodyPool.Get().(*[]byte)
		defer jsonBodyPool.Put(buf)
		// Tile.EncodeJSON's body, in place: the marshalled tile and a newline.
		*buf, err = tile.AppendJSON((*buf)[:0], t)
		payload = append(*buf, '\n')
	} else {
		if acceptsTileBinary(r.Header.Get("Accept")) {
			format = tile.FormatBinary
		}
		gz = acceptsGzip(r.Header.Get("Accept-Encoding"))
		payload, err = s.encodedBody(c, t, format, gz)
		h.Add("Vary", "Accept")
		h.Add("Vary", "Accept-Encoding")
	}
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	if format == tile.FormatBinary {
		h.Set("Content-Type", tile.BinaryContentType)
	} else {
		h.Set("Content-Type", "application/json")
	}
	if gz {
		h.Set("Content-Encoding", "gzip")
	}
	h.Set("Content-Length", strconv.Itoa(len(payload)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(payload)
	s.cfg.Obs.ObserveTileBytes(len(payload))
}

// encodedBody returns the cached response body for (c, format, gz),
// encoding it on first touch. The gzip variant composes through the cache:
// it compresses the cached plain body of the same format, so a warm
// deployment never re-encodes a tile just to change its compression.
func (s *Server) encodedBody(c tile.Coord, t *tile.Tile, format tile.Format, gz bool) ([]byte, error) {
	encode := func() ([]byte, error) {
		if format == tile.FormatBinary {
			return tile.EncodeBinary(t)
		}
		return t.EncodeJSON()
	}
	if !gz {
		return s.cfg.Encoded.Get(c, format, false, encode)
	}
	return s.cfg.Encoded.Get(c, format, true, func() ([]byte, error) {
		plain, err := s.cfg.Encoded.Get(c, format, false, encode)
		if err != nil {
			return nil, err
		}
		return gzipBytes(plain)
	})
}

// acceptsTileBinary reports whether the Accept header asks for the binary
// tile codec. Exact media-type matching (with or without parameters) is
// enough here: the negotiation is a two-format switch, not a full RFC 9110
// q-value resolution — a client naming the type wants it.
func acceptsTileBinary(accept string) bool {
	for _, part := range strings.Split(accept, ",") {
		mt, _, _ := strings.Cut(strings.TrimSpace(part), ";")
		if strings.TrimSpace(mt) == tile.BinaryContentType {
			return true
		}
	}
	return false
}

// acceptsGzip reports whether the Accept-Encoding header admits gzip.
func acceptsGzip(acceptEncoding string) bool {
	for _, part := range strings.Split(acceptEncoding, ",") {
		enc, params, _ := strings.Cut(strings.TrimSpace(part), ";")
		enc = strings.TrimSpace(enc)
		if enc != "gzip" && enc != "*" {
			continue
		}
		// "gzip;q=0" is an explicit refusal.
		if q, ok := strings.CutPrefix(strings.TrimSpace(params), "q="); ok {
			if v, err := strconv.ParseFloat(strings.TrimSpace(q), 64); err == nil && v == 0 {
				continue
			}
		}
		return true
	}
	return false
}

// Pooled gzip machinery: compression runs once per cached payload, but the
// pools keep even cold-cache bursts (a fleet restart, an encoded-cache
// wipe) from allocating a ~800 KB gzip.Writer per request.
var (
	gzipWriterPool = sync.Pool{New: func() any { return gzip.NewWriter(io.Discard) }}
	gzipBufPool    = sync.Pool{New: func() any { return new(bytes.Buffer) }}
)

// gzipBytes compresses plain with a pooled writer and returns an owned
// slice (the result outlives the pooled buffer inside the encoded cache).
func gzipBytes(plain []byte) ([]byte, error) {
	buf := gzipBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	zw := gzipWriterPool.Get().(*gzip.Writer)
	zw.Reset(buf)
	_, werr := zw.Write(plain)
	cerr := zw.Close()
	gzipWriterPool.Put(zw)
	out := bytes.Clone(buf.Bytes())
	gzipBufPool.Put(buf)
	if werr != nil {
		return nil, werr
	}
	if cerr != nil {
		return nil, cerr
	}
	return out, nil
}
