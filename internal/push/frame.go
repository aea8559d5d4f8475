// Package push is the server-push delivery layer of the middleware
// (Khameleon-style continuous prefetch): instead of parking every
// prefetched tile in the server-side cache and waiting for the client to
// ask, a session with an attached stream has completed fetches framed and
// written down one long-lived HTTP response, so the tile is already
// client-side when the pan that wants it happens.
//
// The package has two halves:
//
//   - the wire formats: SSE frames (this file) carrying the tile payload
//     plus its coord/model/score attribution, greppable by curl, and binary
//     frames (binary.go) around the tile's memoized FCT3 body, which a
//     client negotiates on GET /stream as it does on /tile;
//   - the Registry (registry.go) of per-session handles: the server opens
//     one Session per session and closes it at eviction, and the prefetch
//     scheduler pushes through it (it is the session's prefetch.PushSink)
//     — attach/supersede/release lifecycle, bounded per-stream frame
//     buffers, drain-rate measurement (the scheduler's bandwidth-aware
//     admission term), and push-to-consume lead-time tracking.
package push

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"forecache/internal/tile"
)

// Frame types.
const (
	// FrameTile carries one prefetched tile and its attribution.
	FrameTile = "tile"
	// FrameHeartbeat keeps the stream's intermediaries from timing an idle
	// connection out; it carries no tile.
	FrameHeartbeat = "heartbeat"
)

// Frame is one unit of the push stream: a tile with its scheduling
// attribution, or a heartbeat.
type Frame struct {
	// Type is FrameTile or FrameHeartbeat.
	Type string `json:"type"`
	// Session is the stream's session id (echoed so an SSE frame is
	// self-describing in logs and captures; binary frames omit it).
	Session string `json:"session,omitempty"`
	// Seq is the stream-local frame sequence number, assigned at enqueue.
	Seq uint64 `json:"seq"`
	// Model is the recommender whose prediction asked for the tile.
	Model string `json:"model,omitempty"`
	// Score is that recommender's confidence for the tile.
	Score float64 `json:"score,omitempty"`
	// Backfill marks frames replayed from the server-side cache when a
	// dropped stream re-attaches (as opposed to freshly completed fetches).
	Backfill bool `json:"backfill,omitempty"`
	// Coord addresses the tile (zero for heartbeats).
	Coord tile.Coord `json:"coord"`
	// Tile is the payload to send (nil for heartbeats). Decode and
	// DecodeBinary leave it nil: DecodeTile decodes a received tile.
	Tile *tile.Tile `json:"tile,omitempty"`
	// Payload, when set, is the tile's already-encoded JSON body — the same
	// bytes the /tile endpoint serves. The SSE stream handler sets it from
	// the deployment's encoded-payload cache just before it writes the
	// frame, and Encode splices it into the "tile" field verbatim instead
	// of re-marshaling Tile, so a tile pushed to N attached streams is
	// encoded once, not N times. It is never a wire field of its own;
	// Decode sets it to the "tile" value it read.
	Payload json.RawMessage `json:"-"`

	// body is DecodeBinary's undecoded FCT3 payload, gzipped when gz.
	body []byte
	gz   bool
}

// DecodeTile decodes the tile a received frame carries: DecodeBinary's
// FCT3 body, inflated first (to at most tile.MaxInflated bytes) when the
// frame's gzip flag is set, or Decode's JSON payload. The codec's checks,
// the CRC included, run here, and a tile whose coordinate differs from the
// frame's is an error. Frame decoding leaves this to the consumer, so a
// frame nobody consumes is never decoded.
func (f Frame) DecodeTile() (*tile.Tile, error) {
	b, decode := []byte(f.Payload), tile.DecodeJSON
	if f.gz {
		b, decode = f.body, func(b []byte) (*tile.Tile, error) { return tile.DecodeGzip(b, tile.DecodeBinary) }
	} else if f.body != nil {
		b, decode = f.body, tile.DecodeBinary
	}
	t, err := decode(b)
	if err != nil {
		return nil, fmt.Errorf("push: decode frame %s: %w", f.Coord, err)
	}
	if t.Coord != f.Coord {
		return nil, fmt.Errorf("push: frame for %s carries tile %s", f.Coord, t.Coord)
	}
	return t, nil
}

// wireFrame is Frame with the "tile" value as raw bytes: how Encode splices
// a pre-encoded payload in and how Decode reads one. The outer Tile hides
// Frame's, and encoding/json writes it last, where Frame's would be.
type wireFrame struct {
	Frame
	Tile json.RawMessage `json:"tile,omitempty"`
}

// Encode writes f as one SSE event — "event: <type>", "data: <json>", and
// a terminating blank line — returning the number of bytes written. The
// JSON line carries every field (session ids, model names and coords with
// hostile characters are JSON-escaped onto a single line), so the event
// name never needs escaping: it is one of the two fixed constants, and
// anything else is rejected here rather than corrupting the stream.
func Encode(w io.Writer, f Frame) (int, error) {
	switch f.Type {
	case FrameTile, FrameHeartbeat:
	default:
		return 0, fmt.Errorf("push: unknown frame type %q", f.Type)
	}
	var data []byte
	var err error
	if f.Type == FrameTile && len(f.Payload) > 0 {
		// json.Marshal compacts the RawMessage onto the single data line
		// (the cached body carries a trailing newline), so the SSE framing
		// holds regardless of how the payload was produced.
		data, err = json.Marshal(wireFrame{Frame: f, Tile: f.Payload})
	} else {
		data, err = json.Marshal(f)
	}
	if err != nil {
		return 0, fmt.Errorf("push: encode frame: %w", err)
	}
	return fmt.Fprintf(w, "event: %s\ndata: %s\n\n", f.Type, data)
}

// Decode reads the next frame off the stream, keeping the "tile" value
// undecoded in Payload (see DecodeTile). It tolerates SSE comment lines
// (": ...") and unknown fields, returns io.EOF at a clean end of stream,
// and fails on data lines that are not JSON — a framing error is a reason
// to drop and re-attach the stream, not to guess.
func Decode(r *bufio.Reader) (Frame, error) {
	var w wireFrame
	var haveData bool
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			if err == io.EOF && strings.TrimSpace(line) == "" && !haveData {
				return Frame{}, io.EOF
			}
			return Frame{}, fmt.Errorf("push: read frame: %w", err)
		}
		line = strings.TrimRight(line, "\r\n")
		switch {
		case line == "":
			if haveData {
				w.Payload = w.Tile
				return w.Frame, nil
			}
			// Leading blank lines between events are legal SSE; skip.
		case strings.HasPrefix(line, ":"):
			// SSE comment; ignore.
		case strings.HasPrefix(line, "data: "):
			if err := json.Unmarshal([]byte(line[len("data: "):]), &w); err != nil {
				return Frame{}, fmt.Errorf("push: decode frame: %w", err)
			}
			haveData = true
		default:
			// event:/id:/retry: lines carry no payload we need — the type is
			// inside the JSON — but keep scanning to the blank terminator.
		}
	}
}
