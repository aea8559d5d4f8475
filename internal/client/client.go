// Package client is the Go client for the ForeCache middleware server: the
// programmatic equivalent of the paper's browser-based visualizer. It
// issues tile requests and surfaces the middleware's cache/phase/latency
// telemetry from the response headers.
package client

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"forecache/internal/tile"
)

// Meta mirrors the server's dataset description (the wire type is defined
// on both sides to keep the client importable without the server).
type Meta struct {
	Levels   int      `json:"levels"`
	TileSize int      `json:"tileSize"`
	Attrs    []string `json:"attrs"`
}

// Client talks to one middleware server on behalf of one session.
type Client struct {
	base    string
	session string
	http    *http.Client

	// Push-stream state (see push.go). slots is the bounded client-side
	// buffer of streamed tiles, keyed by coordinate; order is its FIFO
	// eviction queue, oldest first.
	mu     sync.Mutex
	binary bool // guarded by mu; see NegotiateBinary
	stream *streamState
	slots  map[tile.Coord]slot
	order  []tile.Coord
	pstats PushStats
}

// New returns a client for the server at base (e.g.
// "http://localhost:8080") using the given session id ("" = default).
func New(base, session string) *Client {
	return &Client{base: base, session: session, http: &http.Client{Timeout: 30 * time.Second}}
}

// NegotiateBinary toggles wire-format negotiation on Tile and Attach: when
// on, the client advertises "Accept: application/x-forecache-tile" and
// "Accept-Encoding: gzip", and decodes whatever the server grants — the
// binary codec, gzip compression, both, or plain JSON and SSE from a server
// without encoded serving (the headers are ignored there, so a mixed
// fleet is safe). Off (the default) keeps requests byte-identical to
// earlier clients.
func (c *Client) NegotiateBinary(on bool) {
	c.mu.Lock()
	c.binary = on
	c.mu.Unlock()
}

// negotiate adds NegotiateBinary's headers to a /tile or /stream request.
func (c *Client) negotiate(req *http.Request) {
	c.mu.Lock()
	binary := c.binary
	c.mu.Unlock()
	if binary {
		req.Header.Set("Accept", tile.BinaryContentType)
		// Setting Accept-Encoding explicitly disables the transport's
		// transparent decompression: decodeTileBody gunzips by hand, and
		// stream frames are gzipped one by one.
		req.Header.Set("Accept-Encoding", "gzip")
	}
}

// TileInfo carries the middleware telemetry for one served tile.
type TileInfo struct {
	Hit     bool
	Phase   string
	Latency time.Duration
	// Streamed reports that the returned tile was already sitting in the
	// client's push-stream slot buffer when it was requested: it was
	// available with zero fetch latency before the request was issued.
	Streamed bool
}

// Meta fetches the dataset description.
func (c *Client) Meta() (Meta, error) {
	var meta Meta
	err := c.getJSON("/meta", &meta)
	return meta, err
}

// Tile requests one tile; the returned info reports whether the middleware
// had it prefetched. When a push stream is attached and the coordinate is
// sitting in the slot buffer, the request revalidates the slot's tile
// (If-None-Match: its ETag under the delivering stream's X-Tile-Epoch). The
// request is still issued so the server's view of the session's history
// stays contiguous and each prefetch outcome is judged once, by the server.
// A 304 Not Modified, or a 200 without an ETag (a server that ignores the
// tag; its body is drained undecoded), consumes the slot: its tile is
// returned with Streamed set. A 200 with an ETag means the tag is stale (the
// server restarted, and may serve another world), so its body answers. A
// failed request keeps the slot; a slot whose tile fails to decode is
// rejected, and the pulled body answers.
func (c *Client) Tile(coord tile.Coord) (*tile.Tile, TileInfo, error) {
	t, epoch := c.slotTile(coord)
	streamed := t != nil
	u := c.base + "/tile?level=" + strconv.Itoa(coord.Level) + "&y=" + strconv.Itoa(coord.Y) + "&x=" + strconv.Itoa(coord.X)
	if c.session != "" {
		u += "&session=" + url.QueryEscape(c.session)
	}
	req, err := http.NewRequest(http.MethodGet, u, nil)
	if err != nil {
		return nil, TileInfo{}, err
	}
	c.negotiate(req)
	revalidate := streamed && epoch != ""
	if revalidate {
		req.Header.Set("If-None-Match", `W/"`+epoch+"."+strconv.Itoa(coord.Level)+"."+strconv.Itoa(coord.Y)+"."+strconv.Itoa(coord.X)+`"`)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, TileInfo{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && (!revalidate || resp.StatusCode != http.StatusNotModified) {
		return nil, TileInfo{}, decodeError(resp)
	}
	if streamed {
		// A tagged 200 to a revalidation: the slot's tag is stale.
		streamed = !revalidate || resp.StatusCode == http.StatusNotModified || resp.Header.Get("ETag") == ""
		c.mu.Lock()
		c.dropSlotLocked(coord)
		if streamed {
			c.pstats.Consumed++
		}
		c.mu.Unlock()
	}
	if streamed {
		// To EOF (a 304 has no body), so the transport reuses the
		// connection; a body past decodeTileBody's bound is dropped with it.
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, tile.MaxInflated))
	} else if t, err = decodeTileBody(resp); err != nil {
		return nil, TileInfo{}, err
	}
	info := TileInfo{
		Hit:      resp.Header.Get("X-Cache") == "HIT",
		Phase:    resp.Header.Get("X-Phase"),
		Streamed: streamed,
	}
	if ms, err := strconv.ParseFloat(resp.Header.Get("X-Latency-Ms"), 64); err == nil {
		info.Latency = time.Duration(ms * float64(time.Millisecond))
	}
	return t, info, nil
}

// decodeTileBody decodes a /tile response in whichever representation the
// server chose: Content-Type selects the codec, and a gzip Content-Encoding
// routes the body through tile.DecodeGzip's pooled, bounded inflater first.
// Plain JSON from a legacy server flows through unchanged. The body is
// always read to EOF, into a buffer sized once from Content-Length when the
// server declared one — the transport only reuses a connection whose
// response was fully drained — and never past tile.MaxInflated bytes, the
// bound that also holds a body the transport gunzipped by itself.
func decodeTileBody(resp *http.Response) (*tile.Tile, error) {
	var buf bytes.Buffer
	// A declared length sizes the buffer only up to 1 MiB (a real body is
	// tens of kilobytes): past that it grows as bytes actually arrive.
	if n := resp.ContentLength; n > 0 && n <= 1<<20 {
		buf.Grow(int(n) + bytes.MinRead)
	}
	if n, err := buf.ReadFrom(io.LimitReader(resp.Body, tile.MaxInflated+1)); err != nil {
		return nil, fmt.Errorf("client: read tile: %w", err)
	} else if n > tile.MaxInflated {
		return nil, fmt.Errorf("client: tile body past %d bytes", tile.MaxInflated)
	}
	decode := tile.DecodeJSON
	if strings.HasPrefix(resp.Header.Get("Content-Type"), tile.BinaryContentType) {
		decode = tile.DecodeBinary
	}
	if resp.Header.Get("Content-Encoding") == "gzip" {
		codec := decode
		decode = func(b []byte) (*tile.Tile, error) { return tile.DecodeGzip(b, codec) }
	}
	t, err := decode(buf.Bytes())
	if err != nil {
		return nil, fmt.Errorf("client: decode tile: %w", err)
	}
	return t, nil
}

// Stats fetches the session's cache statistics.
func (c *Client) Stats() (map[string]any, error) {
	var out map[string]any
	err := c.getJSON("/stats"+c.sessionQuery(), &out)
	return out, err
}

// Reset starts a fresh session on the server.
func (c *Client) Reset() error {
	resp, err := c.http.Post(c.base+"/reset"+c.sessionQuery(), "", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		return decodeError(resp)
	}
	return nil
}

// sessionQuery is the query string naming the client's session, if it has one.
func (c *Client) sessionQuery() string {
	if c.session == "" {
		return ""
	}
	return "?session=" + url.QueryEscape(c.session)
}

func (c *Client) getJSON(pathAndQuery string, dst any) error {
	resp, err := c.http.Get(c.base + pathAndQuery)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return decodeError(resp)
	}
	return json.NewDecoder(resp.Body).Decode(dst)
}

func decodeError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		return fmt.Errorf("client: server %d: %s", resp.StatusCode, e.Error)
	}
	return fmt.Errorf("client: server %d: %s", resp.StatusCode, body)
}
