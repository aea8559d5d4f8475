package client

import (
	"bytes"
	"compress/gzip"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"forecache/internal/tile"
)

// These tests exercise the client's error handling against misbehaving
// servers; the happy path is covered end to end in the server package.

func TestClientSurfacesServerErrors(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusBadRequest)
		_, _ = w.Write([]byte(`{"error":"no jumping"}`))
	}))
	defer ts.Close()
	c := New(ts.URL, "s")
	if _, _, err := c.Tile(tile.Coord{}); err == nil {
		t.Error("400 response should surface as an error")
	} else if got := err.Error(); got == "" || !contains(got, "no jumping") {
		t.Errorf("error should carry the server message, got %q", got)
	}
	if _, err := c.Meta(); err == nil {
		t.Error("Meta should fail on a 400 response")
	}
	if err := c.Reset(); err == nil {
		t.Error("Reset should fail on a 400 response")
	}
}

func TestClientHandlesNonJSONErrors(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
		_, _ = w.Write([]byte("boom"))
	}))
	defer ts.Close()
	c := New(ts.URL, "")
	if _, _, err := c.Tile(tile.Coord{}); err == nil || !contains(err.Error(), "boom") {
		t.Errorf("plain-text error body should be surfaced, got %v", err)
	}
}

func TestClientHandlesGarbageTilePayload(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte("{not json"))
	}))
	defer ts.Close()
	c := New(ts.URL, "")
	if _, _, err := c.Tile(tile.Coord{}); err == nil {
		t.Error("garbage payload should fail decoding")
	}
}

func TestClientUnreachableServer(t *testing.T) {
	c := New("http://127.0.0.1:1", "")
	if _, _, err := c.Tile(tile.Coord{}); err == nil {
		t.Error("unreachable server should error")
	}
	if _, err := c.Stats(); err == nil {
		t.Error("Stats against unreachable server should error")
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestClientReusesConnection: every /tile body is read to EOF — including
// the JSON body's trailing newline, which a bare json.Decoder leaves
// unread — so the transport keeps one connection alive across sequential
// requests, whichever codec the server answers with.
func TestClientReusesConnection(t *testing.T) {
	tl := &tile.Tile{Size: 16, Attrs: []string{"v"}, Data: [][]float64{make([]float64, 16*16)}}
	jsonBody, err := tl.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	bin, err := tile.EncodeBinary(tl)
	if err != nil {
		t.Fatal(err)
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	_, _ = zw.Write(bin)
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	for _, binary := range []bool{false, true} {
		var dialled atomic.Int64
		ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Header.Get("Accept") == tile.BinaryContentType {
				w.Header().Set("Content-Type", tile.BinaryContentType)
				w.Header().Set("Content-Encoding", "gzip")
				_, _ = w.Write(gz.Bytes())
			} else {
				w.Header().Set("Content-Type", "application/json")
				_, _ = w.Write(jsonBody)
			}
			// Model a chunked response whose terminator trails the data on
			// the wire: a client that stops at the end of the value closes
			// the body before EOF and forfeits the connection.
			w.(http.Flusher).Flush()
			time.Sleep(time.Millisecond)
		}))
		ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
			if st == http.StateNew {
				dialled.Add(1)
			}
		}
		ts.Start()
		c := New(ts.URL, "s")
		c.NegotiateBinary(binary)
		for i := 0; i < 50; i++ {
			if _, _, err := c.Tile(tile.Coord{}); err != nil {
				t.Fatalf("binary=%v request %d: %v", binary, i, err)
			}
		}
		ts.Close()
		if got := dialled.Load(); got != 1 {
			t.Errorf("binary=%v: 50 sequential Tile calls opened %d connections, want 1", binary, got)
		}
	}
}
