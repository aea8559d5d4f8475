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
		if got.Tile != nil || (len(got.Payload) == 0) != (want.Tile == nil) {
			t.Fatalf("frame %d: tile presence mismatch: got tile %v, payload %q", i, got.Tile, got.Payload)
		}
		if want.Tile != nil {
			tl, err := got.DecodeTile()
			if err != nil {
				t.Fatalf("frame %d: DecodeTile: %v", i, err)
			}
			if tl.Coord != want.Tile.Coord || tl.Size != want.Tile.Size {
				t.Fatalf("frame %d: tile mismatch: got %+v want %+v", i, tl, want.Tile)
			}
			if len(tl.Data) != 1 || len(tl.Data[0]) != 4 || tl.Data[0][1] != -2.25 {
				t.Fatalf("frame %d: tile data corrupted: %+v", i, tl.Data)
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
	buf.Reset()
	c := tile.Coord{Level: 1, X: 1}
	Encode(&buf, Frame{Type: FrameTile, Session: "s", Seq: 2, Coord: c, Tile: testTile(c)})
	f.Add(buf.String())
	f.Add(": comment\n\n")
	f.Add("data: {\"type\":\"tile\"}\n\n")
	f.Fuzz(func(t *testing.T, s string) {
		r := bufio.NewReader(strings.NewReader(s))
		for i := 0; i < 16; i++ {
			got, err := Decode(r)
			if err != nil {
				return
			}
			// A tile frame's payload decodes to a tile for the frame's own
			// coordinate, or to an error.
			if got.Type == FrameTile {
				if tl, err := got.DecodeTile(); err == nil && tl.Coord != got.Coord {
					t.Fatalf("DecodeTile returned %v for a frame at %v", tl.Coord, got.Coord)
				}
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
	r := NewRegistry(Config{})
	r.Attach("s")
	for i := 0; i <= streamBuffer; i++ {
		c := tile.Coord{Level: 7, X: i}
		ok := r.Push("s", "m", c, 1, testTile(c))
		if want := i < streamBuffer; ok != want {
			t.Fatalf("push %d: ok=%v want %v", i, ok, want)
		}
	}
	got := r.Stats()
	if got.Pushed != streamBuffer || got.Dropped != 1 {
		t.Fatalf("stats: %+v", got)
	}
}

// TestRegistryDetachAndRelease: a session's Close ends its stream and
// forgets its push state; a Release (client drop) ends the stream only.
func TestRegistryDetachAndRelease(t *testing.T) {
	r := NewRegistry(Config{})
	old := r.Open("s")
	st := old.Attach()
	old.RecordWrite(1000, 10*time.Millisecond)
	old.Close()
	select {
	case <-st.Done():
	default:
		t.Fatal("Close did not close the stream")
	}
	// The session's next handle starts without drain state.
	ss := r.Open("s")
	st2 := ss.Attach()
	if d := ss.DrainDelay(); d != 0 {
		t.Fatalf("drain state survived Close: %v", d)
	}
	ss.RecordWrite(1000, 10*time.Millisecond)
	if d := ss.DrainDelay(); d == 0 {
		t.Fatal("no drain delay after RecordWrite")
	}
	// Release (client drop) keeps session state for the reconnect.
	r.Release(st2)
	select {
	case <-st2.Done():
	default:
		t.Fatal("Release did not close the stream")
	}
	if d := ss.DrainDelay(); d != 0 {
		t.Fatalf("DrainDelay nonzero with no stream attached: %v", d)
	}
	ss.Attach()
	if d := ss.DrainDelay(); d == 0 {
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
	ss := r.Open("s")
	ss.Attach()
	if d := ss.DrainDelay(); d != 0 {
		t.Fatalf("DrainDelay before any write: %v", d)
	}
	// 1000 bytes in 10ms → 100 kB/s; avg frame 1000 B → 10ms per frame.
	ss.RecordWrite(1000, 10*time.Millisecond)
	d := ss.DrainDelay()
	if d < 9*time.Millisecond || d > 11*time.Millisecond {
		t.Fatalf("DrainDelay = %v, want ~10ms", d)
	}
	// Faster writes shrink the estimate.
	for i := 0; i < 20; i++ {
		ss.RecordWrite(1000, time.Millisecond)
	}
	if d2 := ss.DrainDelay(); d2 >= d {
		t.Fatalf("DrainDelay did not shrink: %v -> %v", d, d2)
	}
	if d := r.Open("nobody").DrainDelay(); d != 0 {
		t.Fatalf("DrainDelay for a session without a stream: %v", d)
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
	pipe := obs.NewPipeline(obs.Config{})
	r := NewRegistry(Config{Obs: pipe, now: func() time.Time { return now }})
	ss := r.Open("s")
	ss.Attach()
	c := tile.Coord{Level: 3, Y: 1, X: 2}
	if !ss.Push("m", c, 1, testTile(c)) {
		t.Fatal("push failed")
	}
	now = now.Add(250 * time.Millisecond)
	lead, ok := ss.Consumed(c)
	if !ok || lead != 250*time.Millisecond {
		t.Fatalf("Consumed = %v, %v", lead, ok)
	}
	// Second consume of the same coord is not double counted.
	if _, ok := ss.Consumed(c); ok {
		t.Fatal("coord consumed twice")
	}
	if _, ok := ss.Consumed(tile.Coord{Level: 9}); ok {
		t.Fatal("never-pushed coord reported consumed")
	}
	if got := r.Stats(); got.Consumed != 1 {
		t.Fatalf("stats: %+v", got)
	}
	if n := pipe.PushLead.Snapshot().Count; n != 1 {
		t.Fatalf("PushLead observations = %d, want 1", n)
	}
}

// pushDrained pushes c onto session s's stream st and takes the frame off
// the stream again, as the stream handler would.
func pushDrained(t *testing.T, r *Registry, st *Stream, c tile.Coord) {
	t.Helper()
	if !r.Push("s", "m", c, 1, testTile(c)) {
		t.Fatalf("push of %v failed", c)
	}
	<-st.Frames()
}

// trackerSize reads the session's pushed-coordinate tracker.
func trackerSize(ss *Session) (pushedAt, order int) {
	ss.reg.mu.Lock()
	defer ss.reg.mu.Unlock()
	return len(ss.pushedAt), len(ss.order)
}

func TestRegistryPushedAtBounded(t *testing.T) {
	r := NewRegistry(Config{})
	ss := r.Open("s")
	st := ss.Attach()
	for i := 0; i < pushedAtCap+10; i++ {
		pushDrained(t, r, st, tile.Coord{Level: 12, X: i})
	}
	if n, _ := trackerSize(ss); n > pushedAtCap {
		t.Fatalf("pushedAt grew to %d, cap %d", n, pushedAtCap)
	}
	// Oldest were evicted; newest still tracked.
	if _, ok := ss.Consumed(tile.Coord{Level: 12, X: 0}); ok {
		t.Fatal("oldest pushed coord still tracked past the cap")
	}
	if _, ok := ss.Consumed(tile.Coord{Level: 12, X: pushedAtCap + 9}); !ok {
		t.Fatal("newest pushed coord not tracked")
	}
}

// TestRegistryTrackerBoundedUnderConsumption: a session that consumes what
// it is pushed keeps a bounded tracker, however long it runs.
func TestRegistryTrackerBoundedUnderConsumption(t *testing.T) {
	r := NewRegistry(Config{})
	ss := r.Open("s")
	st := ss.Attach()
	for i := 0; i < 10000; i++ {
		c := tile.Coord{Level: 6, X: i % 35}
		pushDrained(t, r, st, c)
		if _, ok := ss.Consumed(c); !ok {
			t.Fatalf("round %d: pushed %v not consumed", i, c)
		}
	}
	if pushedAt, order := trackerSize(ss); pushedAt != 0 || order > pushedAtCap {
		t.Fatalf("after 10,000 consumed pushes the tracker holds %d stamps and %d order entries, cap %d",
			pushedAt, order, pushedAtCap)
	}
}

// TestRegistryRepushKeepsFreshStamp: a coordinate pushed, consumed and
// pushed again is remembered for pushedAtCap pushes from its second push,
// not evicted early by its first push's entry.
func TestRegistryRepushKeepsFreshStamp(t *testing.T) {
	r := NewRegistry(Config{})
	ss := r.Open("s")
	st := ss.Attach()
	a := tile.Coord{Level: 12, X: 1 << 11}
	pushDrained(t, r, st, a)
	if _, ok := ss.Consumed(a); !ok {
		t.Fatal("first push not consumed")
	}
	for i := 0; i < 10; i++ {
		pushDrained(t, r, st, tile.Coord{Level: 12, X: i})
	}
	pushDrained(t, r, st, a)
	// pushedAtCap-10 more pushes: fewer than pushedAtCap since a's second
	// push, more than enough to fill the tracker.
	for i := 0; i < pushedAtCap-10; i++ {
		pushDrained(t, r, st, tile.Coord{Level: 12, Y: 1, X: i})
	}
	if _, ok := ss.Consumed(a); !ok {
		t.Fatal("re-pushed coord forgotten before pushedAtCap later pushes")
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

// TestRegistryPushNeverEncodes: the registry hands tiles on unencoded,
// whatever its Config says — the stream handler encodes a frame when it
// writes it — so pushes onto an attached stream, one of them dropped at
// the full buffer, leave the encoded cache untouched.
func TestRegistryPushNeverEncodes(t *testing.T) {
	ec := tile.NewEncodedCache(0, nil)
	r := NewRegistry(Config{Encoded: ec})
	st := r.Attach("s")
	for i := 0; i <= streamBuffer; i++ {
		c := tile.Coord{Level: 7, X: i}
		if ok := r.Push("s", "m", c, 1, testTile(c)); ok != (i < streamBuffer) {
			t.Fatalf("push %d: ok=%v", i, ok)
		}
	}
	if f := <-st.Frames(); f.Payload != nil || f.Tile == nil {
		t.Fatalf("frame %+v, want the tile and no payload", f)
	}
	if got := ec.Stats(); got != (tile.EncodedCacheStats{Budget: got.Budget}) {
		t.Fatalf("pushes touched the encoded cache: %+v", got)
	}
}

// TestClosedHandleRefusesAttach: a closed session handle attaches nothing
// (the server answers its /stream with 503), refuses pushes, and leaves
// the registry's stats.
func TestClosedHandleRefusesAttach(t *testing.T) {
	r := NewRegistry(Config{})
	ss := r.Open("s")
	st := ss.Attach()
	ss.Close()
	select {
	case <-st.Done():
	default:
		t.Fatal("Close left the session's stream open")
	}
	if ss.Attach() != nil || ss.Attach() != nil {
		t.Fatal("a closed session attached a stream")
	}
	c := tile.Coord{Level: 1}
	if ss.Push("m", c, 1, testTile(c)) || r.Push("s", "m", c, 1, testTile(c)) {
		t.Fatal("a push reached a closed session")
	}
	ss.Close() // idempotent
	if got := r.Stats(); got.Open != 0 || len(got.DrainRates) != 0 {
		t.Fatalf("stats after Close: %+v", got)
	}
	r.Close()
	if r.Open("late").Attach() != nil {
		t.Fatal("a handle opened after the registry's Close attached a stream")
	}
}

// TestHandlesForOneIDAreIndependent: two handles opened for one id (an
// evicted session and the newer session that reuses its id) keep separate
// streams and drain-rate estimates. Closing the older leaves the newer
// one's alone, and the string adapters resolve to the newer.
func TestHandlesForOneIDAreIndependent(t *testing.T) {
	r := NewRegistry(Config{})
	older := r.Open("b")
	oldStream := older.Attach()
	older.RecordWrite(1000, 100*time.Millisecond)
	newer := r.Open("b")
	newStream := newer.Attach()
	newer.RecordWrite(1000, 10*time.Millisecond)
	select {
	case <-oldStream.Done():
		t.Fatal("opening a newer handle closed the older one's stream")
	default:
	}

	older.Close()
	select {
	case <-newStream.Done():
		t.Fatal("closing the older handle closed the newer one's stream")
	default:
	}
	if d := newer.DrainDelay(); d < 9*time.Millisecond || d > 11*time.Millisecond {
		t.Fatalf("newer handle's drain delay = %v after the older closed, want its own ~10ms", d)
	}
	if got := r.Stats(); got.Open != 1 || got.DrainRates["b"] != 100000 {
		t.Fatalf("stats = %+v, want the newer stream alone at 100000 B/s", got)
	}
	c := tile.Coord{Level: 2}
	if !r.Push("b", "m", c, 1, testTile(c)) {
		t.Fatal("adapter push to b failed")
	}
	if f := <-newStream.Frames(); f.Coord != c {
		t.Fatalf("frame on the newer stream = %+v", f)
	}
}
