package client

import (
	"bytes"
	"compress/gzip"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strconv"
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
// requests, whichever codec the server answers with and whether or not it
// declares a Content-Length.
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
	for _, tc := range []struct {
		name, contentType, encoding string
		body                        []byte
	}{
		{"json", "application/json", "", jsonBody},
		{"binary", tile.BinaryContentType, "", bin},
		{"binary+gzip", tile.BinaryContentType, "gzip", gz.Bytes()},
	} {
		var dialled, served atomic.Int64
		ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if got, want := r.Header.Get("Accept") == tile.BinaryContentType, tc.contentType == tile.BinaryContentType; got != want {
				t.Errorf("%s: binary negotiated = %v, want %v", tc.name, got, want)
			}
			w.Header().Set("Content-Type", tc.contentType)
			if tc.encoding != "" {
				w.Header().Set("Content-Encoding", tc.encoding)
			}
			if served.Add(1)%2 == 0 {
				// The middleware's own shape: the length declared up front.
				w.Header().Set("Content-Length", strconv.Itoa(len(tc.body)))
				_, _ = w.Write(tc.body)
				return
			}
			// And a chunked response whose terminator trails the data on
			// the wire: a client that stops at the end of the value closes
			// the body before EOF and forfeits the connection.
			_, _ = w.Write(tc.body)
			w.(http.Flusher).Flush()
			time.Sleep(time.Millisecond)
		}))
		ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
			if st == http.StateNew {
				dialled.Add(1)
			}
		}
		ts.Start()
		c := New(ts.URL, "s p&c") // a session id the query must escape
		c.NegotiateBinary(tc.contentType == tile.BinaryContentType)
		for i := 0; i < 50; i++ {
			got, _, err := c.Tile(tile.Coord{})
			if err != nil {
				t.Fatalf("%s request %d: %v", tc.name, i, err)
			}
			if got.Size != tl.Size || len(got.Data) != 1 || len(got.Data[0]) != 16*16 {
				t.Fatalf("%s request %d: decoded %+v", tc.name, i, got)
			}
		}
		ts.Close()
		if got := dialled.Load(); got != 1 {
			t.Errorf("%s: 50 sequential Tile calls opened %d connections, want 1", tc.name, got)
		}
	}
}

// TestTileQueryEscapesSession: the hand-built /tile query carries the
// coordinate and the session id exactly as url.Values would have.
func TestTileQueryEscapesSession(t *testing.T) {
	var got url.Values
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got = r.URL.Query()
		w.WriteHeader(http.StatusTeapot)
	}))
	defer ts.Close()
	_, _, _ = New(ts.URL, "a b&x=9/é").Tile(tile.Coord{Level: 3, Y: 5, X: 2})
	want := url.Values{"level": {"3"}, "y": {"5"}, "x": {"2"}, "session": {"a b&x=9/é"}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("server parsed %v, want %v", got, want)
	}
}

// TestClientInflateBound: a gzipped body that inflates past the bound is
// refused with an error naming it. The body is a valid JSON tile followed
// by 16 MiB of whitespace, so a client without the bound inflates all of
// it and returns the tile.
func TestClientInflateBound(t *testing.T) {
	body, err := (&tile.Tile{Size: 1, Attrs: []string{"v"}, Data: [][]float64{{1}}}).EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	var gz bytes.Buffer
	zw, _ := gzip.NewWriterLevel(&gz, gzip.BestSpeed)
	_, _ = zw.Write(body)
	_, _ = zw.Write(bytes.Repeat([]byte{' '}, 16<<20))
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Encoding", "gzip")
		_, _ = w.Write(gz.Bytes())
	}))
	defer ts.Close()
	c := New(ts.URL, "s")
	c.NegotiateBinary(true) // asks for gzip itself, so the client inflates
	_, _, err = c.Tile(tile.Coord{})
	if err == nil || !contains(err.Error(), strconv.Itoa(16<<20)) {
		t.Fatalf("a body inflating past 16 MiB: err = %v, want one naming the bound", err)
	}
}

// TestHostileContentLengthIsOnlyAHint: past 1 MiB a declared length
// sizes nothing (growing a buffer to 1 TiB would panic); the client reads
// what actually arrives.
func TestHostileContentLengthIsOnlyAHint(t *testing.T) {
	body, err := (&tile.Tile{Size: 1, Attrs: []string{"v"}, Data: [][]float64{{1}}}).EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	resp := &http.Response{Header: http.Header{}, ContentLength: 1 << 40, Body: io.NopCloser(bytes.NewReader(body))}
	if tl, err := decodeTileBody(resp); err != nil || tl.Size != 1 {
		t.Errorf("decodeTileBody = %+v, %v", tl, err)
	}
}
