package push

import (
	"bufio"
	"bytes"
	"io"
	"math"
	"strings"
	"testing"
	"time"

	"forecache/internal/obs"
	"forecache/internal/tile"
)

func testTile(c tile.Coord) *tile.Tile {
	return &tile.Tile{
		Coord: c,
		Size:  2,
		Attrs: []string{"v"},
		Data:  [][]float64{{1.5, -2.25, 0, 4}},
	}
}

func TestFrameRoundTrip(t *testing.T) {
	cases := []Frame{
		{Type: FrameHeartbeat, Session: "s", Seq: 7},
		{
			Type: FrameTile, Session: "plain", Seq: 1, Model: "markov",
			Score: 0.75, Coord: tile.Coord{Level: 2, Y: 3, X: 1},
			Tile: testTile(tile.Coord{Level: 2, Y: 3, X: 1}),
		},
		{
			// Hostile session/model strings: newlines, SSE field syntax,
			// quotes, NULs — all must survive as JSON escapes on one line.
			Type:    FrameTile,
			Session: "evil\nevent: tile\ndata: {}\r\n\"'\x00",
			Seq:     math.MaxUint64,
			Model:   "m\no\rd\"el\x00",
			Score:   -1.25,
			Coord:   tile.Coord{Level: -9, Y: math.MaxInt32, X: math.MinInt32},
			Tile:    testTile(tile.Coord{Level: -9, Y: math.MaxInt32, X: math.MinInt32}),
			// Backfill marker must round-trip too.
			Backfill: true,
		},
	}
	var buf bytes.Buffer
	for _, f := range cases {
		if _, err := Encode(&buf, f); err != nil {
			t.Fatalf("Encode(%+v): %v", f, err)
		}
	}
	r := bufio.NewReader(&buf)
	for i, want := range cases {
		got, err := Decode(r)
		if err != nil {
			t.Fatalf("Decode frame %d: %v", i, err)
		}
		if got.Type != want.Type || got.Session != want.Session || got.Seq != want.Seq ||
			got.Model != want.Model || got.Score != want.Score ||
			got.Backfill != want.Backfill || got.Coord != want.Coord {
			t.Fatalf("frame %d: got %+v want %+v", i, got, want)
		}
		if (got.Tile == nil) != (want.Tile == nil) {
			t.Fatalf("frame %d: tile presence mismatch", i)
		}
		if got.Tile != nil {
			if got.Tile.Coord != want.Tile.Coord || got.Tile.Size != want.Tile.Size {
				t.Fatalf("frame %d: tile mismatch: got %+v want %+v", i, got.Tile, want.Tile)
			}
			if len(got.Tile.Data) != 1 || len(got.Tile.Data[0]) != 4 ||
				got.Tile.Data[0][1] != -2.25 {
				t.Fatalf("frame %d: tile data corrupted: %+v", i, got.Tile.Data)
			}
		}
	}
	if _, err := Decode(r); err != io.EOF {
		t.Fatalf("Decode at end of stream: got %v, want io.EOF", err)
	}
}

func TestEncodeRejectsUnknownType(t *testing.T) {
	var buf bytes.Buffer
	if _, err := Encode(&buf, Frame{Type: "exploit\n\nevent: tile"}); err == nil {
		t.Fatal("Encode accepted an unknown frame type")
	}
	if buf.Len() != 0 {
		t.Fatalf("Encode wrote %d bytes for a rejected frame", buf.Len())
	}
}

func TestEncodeSingleLineData(t *testing.T) {
	var buf bytes.Buffer
	f := Frame{Type: FrameTile, Session: "a\nb", Model: "c\rd", Coord: tile.Coord{Level: 1}}
	if _, err := Encode(&buf, f); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	if strings.Count(s, "\n") != 3 {
		t.Fatalf("encoded frame not exactly 3 newlines (event, data, blank):\n%q", s)
	}
	if !strings.HasPrefix(s, "event: tile\ndata: ") || !strings.HasSuffix(s, "\n\n") {
		t.Fatalf("bad SSE framing: %q", s)
	}
}

func TestDecodeToleratesCommentsAndCRLF(t *testing.T) {
	raw := ": keepalive\r\n\r\nevent: tile\r\nid: 9\r\ndata: {\"type\":\"tile\",\"seq\":3,\"coord\":{\"level\":1,\"y\":2,\"x\":3}}\r\n\r\n"
	f, err := Decode(bufio.NewReader(strings.NewReader(raw)))
	if err != nil {
		t.Fatal(err)
	}
	if f.Seq != 3 || f.Coord != (tile.Coord{Level: 1, Y: 2, X: 3}) {
		t.Fatalf("got %+v", f)
	}
}

func TestDecodeRejectsBadJSON(t *testing.T) {
	raw := "event: tile\ndata: {not json\n\n"
	if _, err := Decode(bufio.NewReader(strings.NewReader(raw))); err == nil {
		t.Fatal("Decode accepted malformed JSON")
	}
}

func FuzzDecode(f *testing.F) {
	var buf bytes.Buffer
	Encode(&buf, Frame{Type: FrameTile, Session: "s", Seq: 1, Coord: tile.Coord{Level: 1}})
	f.Add(buf.String())
	f.Add(": comment\n\n")
	f.Add("data: {\"type\":\"tile\"}\n\n")
	f.Fuzz(func(t *testing.T, s string) {
		r := bufio.NewReader(strings.NewReader(s))
		for i := 0; i < 16; i++ {
			if _, err := Decode(r); err != nil {
				return
			}
		}
	})
}

func TestRegistryAttachSupersede(t *testing.T) {
	r := NewRegistry(Config{})
	a := r.Attach("s")
	if a == nil {
		t.Fatal("Attach returned nil on an open registry")
	}
	b := r.Attach("s")
	select {
	case <-a.Done():
	default:
		t.Fatal("superseded stream not closed")
	}
	select {
	case <-b.Done():
		t.Fatal("fresh stream already closed")
	default:
	}
	if got := r.Stats(); got.Open != 1 || got.Opened != 2 {
		t.Fatalf("stats after supersede: %+v", got)
	}
	// Pushes land on the new stream only.
	c := tile.Coord{Level: 1, Y: 1, X: 1}
	if !r.Push("s", "m", c, 0.5, testTile(c)) {
		t.Fatal("Push to attached session failed")
	}
	select {
	case f := <-b.Frames():
		if f.Coord != c || f.Session != "s" || f.Seq != 1 {
			t.Fatalf("frame: %+v", f)
		}
	default:
		t.Fatal("no frame on current stream")
	}
	if len(a.Frames()) != 0 {
		t.Fatal("frame landed on superseded stream")
	}
}

// TestRegistryPushUnattached: a push-enabled deployment whose clients never
// attach pays nothing per completed prefetch — no frame, no encode.
func TestRegistryPushUnattached(t *testing.T) {
	ec := tile.NewEncodedCache(0, nil)
	r := NewRegistry(Config{Encoded: ec})
	for i := 0; i < 8; i++ {
		c := tile.Coord{Level: 3, X: i}
		if r.Push("ghost", "m", c, 1, testTile(c)) {
			t.Fatal("Push to unattached session succeeded")
		}
	}
	if got := r.Stats(); got.Pushed != 0 || got.Dropped != 0 {
		t.Fatalf("stats counted a refused push: %+v", got)
	}
	if got := ec.Stats(); got.Misses != 0 || got.Hits != 0 || got.Entries != 0 {
		t.Fatalf("pushes to nobody touched the encoded cache: %+v", got)
	}
}

func TestRegistryBufferOverflowDrops(t *testing.T) {
	r := NewRegistry(Config{Buffer: 2})
	r.Attach("s")
	for i := 0; i < 3; i++ {
		c := tile.Coord{Level: 1, X: i}
		ok := r.Push("s", "m", c, 1, testTile(c))
		if want := i < 2; ok != want {
			t.Fatalf("push %d: ok=%v want %v", i, ok, want)
		}
	}
	got := r.Stats()
	if got.Pushed != 2 || got.Dropped != 1 {
		t.Fatalf("stats: %+v", got)
	}
}

func TestRegistryDetachAndRelease(t *testing.T) {
	r := NewRegistry(Config{})
	st := r.Attach("s")
	r.RecordWrite("s", 1000, 10*time.Millisecond)
	r.Detach("s")
	select {
	case <-st.Done():
	default:
		t.Fatal("Detach did not close the stream")
	}
	// Detach forgets drain state entirely.
	st2 := r.Attach("s")
	if d := r.DrainDelay("s"); d != 0 {
		t.Fatalf("drain state survived Detach: %v", d)
	}
	r.RecordWrite("s", 1000, 10*time.Millisecond)
	if d := r.DrainDelay("s"); d == 0 {
		t.Fatal("no drain delay after RecordWrite")
	}
	// Release (client drop) keeps session state for the reconnect.
	r.Release(st2)
	select {
	case <-st2.Done():
	default:
		t.Fatal("Release did not close the stream")
	}
	if d := r.DrainDelay("s"); d != 0 {
		t.Fatalf("DrainDelay nonzero with no stream attached: %v", d)
	}
	r.Attach("s")
	if d := r.DrainDelay("s"); d == 0 {
		t.Fatal("drain estimate did not survive Release + re-attach")
	}
	// A stale Release of a superseded stream must not kill the current one.
	stale := r.Attach("s2")
	_ = r.Attach("s2") // supersedes stale
	r.Release(stale)
	if got := r.Stats(); got.Open != 2 { // "s" and "s2" both still attached
		t.Fatalf("open streams: %+v", got)
	}
}

func TestRegistryCloseIdempotent(t *testing.T) {
	r := NewRegistry(Config{})
	a := r.Attach("a")
	b := r.Attach("b")
	r.Close()
	r.Close()
	for _, st := range []*Stream{a, b} {
		select {
		case <-st.Done():
		default:
			t.Fatal("Close left a stream open")
		}
	}
	if r.Attach("c") != nil {
		t.Fatal("Attach succeeded after Close")
	}
	c := tile.Coord{Level: 1}
	if r.Push("a", "m", c, 1, testTile(c)) {
		t.Fatal("Push succeeded after Close")
	}
	if got := r.Stats(); got.Open != 0 {
		t.Fatalf("stats after Close: %+v", got)
	}
}

func TestRegistryDrainDelay(t *testing.T) {
	r := NewRegistry(Config{})
	r.Attach("s")
	if d := r.DrainDelay("s"); d != 0 {
		t.Fatalf("DrainDelay before any write: %v", d)
	}
	// 1000 bytes in 10ms → 100 kB/s; avg frame 1000 B → 10ms per frame.
	r.RecordWrite("s", 1000, 10*time.Millisecond)
	d := r.DrainDelay("s")
	if d < 9*time.Millisecond || d > 11*time.Millisecond {
		t.Fatalf("DrainDelay = %v, want ~10ms", d)
	}
	// Faster writes shrink the estimate.
	for i := 0; i < 20; i++ {
		r.RecordWrite("s", 1000, time.Millisecond)
	}
	if d2 := r.DrainDelay("s"); d2 >= d {
		t.Fatalf("DrainDelay did not shrink: %v -> %v", d, d2)
	}
	if d := r.DrainDelay("nobody"); d != 0 {
		t.Fatalf("DrainDelay for unknown session: %v", d)
	}
	// Bytes are counted ahead of the write, on their own: the EWMA's
	// samples do not feed the total.
	r.CountWrite(1000, false)
	r.CountWrite(36, true)
	if got := r.Stats(); got.Bytes != 1036 || got.Heartbeats != 1 {
		t.Fatalf("Stats = %+v, want 1036 bytes and 1 heartbeat", got)
	}
}

func TestRegistryConsumedLead(t *testing.T) {
	now := time.Unix(100, 0)
	pipe := obs.NewPipeline(obs.Config{TraceCapacity: -1})
	r := NewRegistry(Config{Obs: pipe, Now: func() time.Time { return now }})
	r.Attach("s")
	c := tile.Coord{Level: 3, Y: 1, X: 2}
	if !r.Push("s", "m", c, 1, testTile(c)) {
		t.Fatal("push failed")
	}
	now = now.Add(250 * time.Millisecond)
	lead, ok := r.Consumed("s", c)
	if !ok || lead != 250*time.Millisecond {
		t.Fatalf("Consumed = %v, %v", lead, ok)
	}
	// Second consume of the same coord is not double counted.
	if _, ok := r.Consumed("s", c); ok {
		t.Fatal("coord consumed twice")
	}
	if _, ok := r.Consumed("s", tile.Coord{Level: 9}); ok {
		t.Fatal("never-pushed coord reported consumed")
	}
	if got := r.Stats(); got.Consumed != 1 {
		t.Fatalf("stats: %+v", got)
	}
	if n := pipe.PushLead.Snapshot().Count; n != 1 {
		t.Fatalf("PushLead observations = %d, want 1", n)
	}
}

func TestRegistryPushedAtBounded(t *testing.T) {
	r := NewRegistry(Config{Buffer: 3 * pushedAtCap})
	r.Attach("s")
	for i := 0; i < pushedAtCap+10; i++ {
		c := tile.Coord{Level: 1, X: i}
		if !r.Push("s", "m", c, 1, testTile(c)) {
			t.Fatalf("push %d failed", i)
		}
	}
	r.mu.Lock()
	n := len(r.sessions["s"].pushedAt)
	r.mu.Unlock()
	if n > pushedAtCap {
		t.Fatalf("pushedAt grew to %d, cap %d", n, pushedAtCap)
	}
	// Oldest were evicted; newest still tracked.
	if _, ok := r.Consumed("s", tile.Coord{Level: 1, X: pushedAtCap + 9}); !ok {
		t.Fatal("newest pushed coord not tracked")
	}
}

func TestRegistryBackfillCounted(t *testing.T) {
	r := NewRegistry(Config{})
	st := r.Attach("s")
	c := tile.Coord{Level: 2, Y: 1}
	if !r.Backfill(st, "m", c, testTile(c)) {
		t.Fatal("Backfill failed")
	}
	f := <-st.Frames()
	if !f.Backfill || f.Type != FrameTile {
		t.Fatalf("frame: %+v", f)
	}
	got := r.Stats()
	if got.Pushed != 1 || got.Backfilled != 1 {
		t.Fatalf("stats: %+v", got)
	}
	// Backfill onto a superseded stream is refused.
	r.Attach("s")
	if r.Backfill(st, "m", c, testTile(c)) {
		t.Fatal("Backfill onto a closed stream succeeded")
	}
}

func TestEncodePayloadMatchesLegacy(t *testing.T) {
	c := tile.Coord{Level: 2, Y: 1, X: 3}
	tl := testTile(c)
	f := Frame{Type: FrameTile, Session: "s", Seq: 5, Model: "m", Score: 0.5, Coord: c, Tile: tl}
	var legacy bytes.Buffer
	if _, err := Encode(&legacy, f); err != nil {
		t.Fatal(err)
	}
	body, err := tl.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	f.Payload = body
	var embedded bytes.Buffer
	if _, err := Encode(&embedded, f); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(legacy.Bytes(), embedded.Bytes()) {
		t.Fatalf("payload-embedded frame differs from legacy marshal:\nlegacy:   %q\nembedded: %q",
			legacy.Bytes(), embedded.Bytes())
	}
}

func TestRegistryPushSharesEncodedPayload(t *testing.T) {
	ec := tile.NewEncodedCache(0, nil)
	r := NewRegistry(Config{Encoded: ec})
	c := tile.Coord{Level: 2, Y: 1, X: 1}
	tl := testTile(c)
	sessions := []string{"s0", "s1", "s2"}
	streams := make([]*Stream, len(sessions))
	for i, s := range sessions {
		streams[i] = r.Attach(s)
	}
	for i, s := range sessions {
		if !r.Push(s, "m", c, 1, tl) {
			t.Fatalf("Push to %s (stream %d) failed", s, i)
		}
	}
	// Delivering one tile to N streams must encode it exactly once.
	if st := ec.Stats(); st.Misses != 1 {
		t.Fatalf("tile encoded %d times for %d streams, want 1 (stats %+v)",
			st.Misses, len(streams), st)
	}
	for i, st := range streams {
		f := <-st.Frames()
		if len(f.Payload) == 0 {
			t.Fatalf("stream %d: frame carries no cached payload", i)
		}
		var buf bytes.Buffer
		if _, err := Encode(&buf, f); err != nil {
			t.Fatalf("stream %d: Encode: %v", i, err)
		}
		got, err := Decode(bufio.NewReader(&buf))
		if err != nil {
			t.Fatalf("stream %d: Decode: %v", i, err)
		}
		if got.Tile == nil || got.Tile.Coord != c || got.Tile.Data[0][1] != -2.25 {
			t.Fatalf("stream %d: decoded tile corrupted: %+v", i, got.Tile)
		}
	}

	// A binary stream's handler copies the FCT2 body at write time, so its
	// frames carry no JSON payload and never touch the JSON variant — on
	// push or on backfill.
	before := ec.Stats()
	bin := r.AttachBinary("bin")
	fresh := tile.Coord{Level: 2, Y: 2, X: 2}
	if !r.Push("bin", "m", fresh, 1, testTile(fresh)) || !r.Backfill(bin, "m", c, tl) {
		t.Fatal("Push/Backfill to the binary stream failed")
	}
	for i := 0; i < 2; i++ {
		if f := <-bin.Frames(); f.Payload != nil || f.Tile == nil {
			t.Fatalf("binary stream frame %d: %+v, want the tile and no payload", i, f)
		}
	}
	if after := ec.Stats(); after != before {
		t.Fatalf("binary stream touched the encoded cache: %+v -> %+v", before, after)
	}
}

func TestRegistryBackfillUsesEncodedPayload(t *testing.T) {
	ec := tile.NewEncodedCache(0, nil)
	r := NewRegistry(Config{Encoded: ec})
	st := r.Attach("s")
	c := tile.Coord{Level: 2, Y: 1}
	if !r.Backfill(st, "m", c, testTile(c)) {
		t.Fatal("Backfill failed")
	}
	f := <-st.Frames()
	if len(f.Payload) == 0 {
		t.Fatal("backfill frame carries no cached payload")
	}
	if stats := ec.Stats(); stats.Misses != 1 {
		t.Fatalf("stats: %+v", stats)
	}
	var buf bytes.Buffer
	if _, err := Encode(&buf, f); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Backfill || got.Tile == nil || got.Tile.Coord != c {
		t.Fatalf("decoded frame: %+v", got)
	}
}
