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
//     frames (binary.go) around the tile's memoized FCT1 body, which a
//     client negotiates on GET /stream as it does on /tile;
//   - the Registry (registry.go): the per-session stream table the server
//     and the prefetch scheduler share — attach/supersede/detach
//     lifecycle, bounded per-stream frame buffers, per-session drain-rate
//     measurement (the scheduler's bandwidth-aware admission term), and
//     push-to-consume lead-time tracking.
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
	// Tile is the payload (nil for heartbeats).
	Tile *tile.Tile `json:"tile,omitempty"`
	// Payload, when set, is the tile's already-encoded JSON body — the same
	// bytes the /tile endpoint serves, shared through the deployment's
	// encoded-payload cache. Encode splices it into the "tile" field
	// verbatim instead of re-marshaling Tile, so a tile pushed to N
	// attached streams is encoded once, not N times. It is never a wire
	// field of its own, and Decode leaves it nil (populating Tile).
	Payload json.RawMessage `json:"-"`
}

// wireFrame is Frame's wire shape when a pre-encoded payload is spliced
// in: identical fields, but the "tile" value is raw bytes.
type wireFrame struct {
	Type     string          `json:"type"`
	Session  string          `json:"session,omitempty"`
	Seq      uint64          `json:"seq"`
	Model    string          `json:"model,omitempty"`
	Score    float64         `json:"score,omitempty"`
	Backfill bool            `json:"backfill,omitempty"`
	Coord    tile.Coord      `json:"coord"`
	Tile     json.RawMessage `json:"tile,omitempty"`
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
		data, err = json.Marshal(wireFrame{
			Type: f.Type, Session: f.Session, Seq: f.Seq, Model: f.Model,
			Score: f.Score, Backfill: f.Backfill, Coord: f.Coord, Tile: f.Payload,
		})
	} else {
		data, err = json.Marshal(f)
	}
	if err != nil {
		return 0, fmt.Errorf("push: encode frame: %w", err)
	}
	return fmt.Fprintf(w, "event: %s\ndata: %s\n\n", f.Type, data)
}

// Decode reads the next frame off the stream. It tolerates SSE comment
// lines (": ...") and unknown fields, returns io.EOF at a clean end of
// stream, and fails on data lines that do not parse — a framing error is
// a reason to drop and re-attach the stream, not to guess.
func Decode(r *bufio.Reader) (Frame, error) {
	var f Frame
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
				return f, nil
			}
			// Leading blank lines between events are legal SSE; skip.
		case strings.HasPrefix(line, ":"):
			// SSE comment; ignore.
		case strings.HasPrefix(line, "data: "):
			if err := json.Unmarshal([]byte(line[len("data: "):]), &f); err != nil {
				return Frame{}, fmt.Errorf("push: decode frame: %w", err)
			}
			haveData = true
		default:
			// event:/id:/retry: lines carry no payload we need — the type is
			// inside the JSON — but keep scanning to the blank terminator.
		}
	}
}
