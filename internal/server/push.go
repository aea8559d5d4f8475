package server

import (
	"bytes"
	"net/http"
	"time"

	"forecache/internal/push"
	"forecache/internal/tile"
)

// streamWriteTimeout bounds each individual frame write on a push stream.
// The serve CLI deliberately runs without a global http.Server WriteTimeout
// (it would kill every long-lived stream after the deadline no matter how
// healthy); instead the stream handler arms a fresh per-write deadline via
// http.ResponseController, so only a peer that stops reading for this long
// gets its stream dropped.
const streamWriteTimeout = 30 * time.Second

// Push returns the attached push registry (nil on pull-only deployments).
func (s *Server) Push() *push.Registry { return s.cfg.Push }

// handleStream is the long-lived per-session push response. Lifecycle:
// attach to the session's own push handle (superseding any previous stream
// for the session — reconnects win), backfill the session's live cached
// predictions, then drain frames until the stream is torn down (session
// evicted, registry closed, client gone, or a write stalls past
// streamWriteTimeout).
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	id := sessionID(r.URL.Query())
	sess, err := s.session(id)
	if err != nil {
		sessionError(w, err)
		return
	}
	// Framing follows the request headers as /tile's format does: binary
	// frames around the memoized bodies for a client naming the tile codec
	// on a deployment with an encoded cache, SSE for anyone else.
	binary := s.cfg.Encoded != nil && acceptsTileBinary(r.Header.Get("Accept"))
	gz := binary && acceptsGzip(r.Header.Get("Accept-Encoding"))
	contentType, format := "text/event-stream", tile.FormatJSON
	if binary {
		contentType, format = push.BinaryContentType, tile.FormatBinary
	}
	st := sess.push.Attach()
	if st == nil { // the session was closed since it was resolved
		httpError(w, http.StatusServiceUnavailable, ErrClosed)
		return
	}
	w.Header().Set("Content-Type", contentType)
	// The client revalidates a pushed tile under this epoch (see tileTag).
	w.Header().Set("X-Tile-Epoch", s.epoch)
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no") // proxies must not buffer the stream
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	_ = rc.Flush()

	// write sends one frame with a per-write deadline and feeds the observed
	// throughput back into the session's drain-rate estimate (the
	// scheduler's bandwidth-aware admission term). The frame is encoded into
	// buf first: the estimate times the connection, never the encoder.
	// Frames arrive unencoded, so a frame never written is never encoded.
	// The tile's body is the memoized one /tile serves; without an encoded
	// cache push.Encode marshals the tile.
	var buf []byte
	write := func(f push.Frame) bool {
		var body []byte
		var err error
		if f.Tile != nil && s.cfg.Encoded != nil { // heartbeats carry none
			body, err = s.encodedBody(f.Coord, f.Tile, format, gz)
		}
		if err == nil && binary {
			buf, err = push.AppendBinary(buf[:0], f, body, gz)
		} else if err == nil {
			f.Payload = body
			sse := bytes.NewBuffer(buf[:0])
			_, err = push.Encode(sse, f)
			buf = sse.Bytes()
		}
		if err != nil {
			return false
		}
		s.cfg.Push.CountWrite(len(buf), f.Type == push.FrameHeartbeat)
		start := time.Now()
		_ = rc.SetWriteDeadline(start.Add(streamWriteTimeout))
		n, err := w.Write(buf)
		if err != nil {
			return false
		}
		if err := rc.Flush(); err != nil {
			return false
		}
		sess.push.RecordWrite(n, time.Since(start))
		return true
	}

	// Backfill: replay the prediction entries already cached for this
	// session, so a dropped-and-reattached stream recovers what the old one
	// carried without new DBMS fetches. CachedPredictions is side-effect
	// free, so the replay cannot double-count feedback outcomes.
	for _, p := range sess.eng.CachedPredictions() {
		s.cfg.Push.Backfill(st, p.Model, p.Tile.Coord, p.Tile)
	}

	hb := time.NewTicker(s.cfg.Push.HeartbeatInterval())
	defer hb.Stop()
	for {
		select {
		case f := <-st.Frames():
			if !write(f) {
				s.cfg.Push.Release(st)
				return
			}
		case <-hb.C:
			if !write(push.Frame{Type: push.FrameHeartbeat, Session: id}) {
				s.cfg.Push.Release(st)
				return
			}
		case <-st.Done():
			// Superseded, session closed, or registry closed: the closer
			// already unlinked the stream; just end the response. Never
			// block here — Close must not wait on a stream mid-write.
			return
		case <-r.Context().Done():
			s.cfg.Push.Release(st)
			return
		}
	}
}
