package push

import (
	"sync"
	"testing"
	"time"

	"forecache/internal/tile"
)

// drained takes every frame queued on st off it, as the stream handler
// would, and returns their coordinates in order.
func drained(st *Stream) []tile.Coord {
	var got []tile.Coord
	for {
		select {
		case f := <-st.Frames():
			got = append(got, f.Coord)
		default:
			return got
		}
	}
}

// pushOnce pushes c to session s and reports how many frames that put on
// st, after draining what st held before.
func pushOnce(t *testing.T, r *Registry, st *Stream, c tile.Coord) int {
	t.Helper()
	drained(st)
	if !r.Push("s", "m", c, 1, testTile(c)) {
		t.Fatalf("push of %v refused", c)
	}
	return len(drained(st))
}

// TestRegistrySkipsHeldRepush: a tile pushed again before its session
// consumed it is not framed a second time — the client still holds it —
// and the push reports success without counting one. Its lead time counts
// from the push that carried it.
func TestRegistrySkipsHeldRepush(t *testing.T) {
	now := time.Unix(100, 0)
	r := NewRegistry(Config{now: func() time.Time { return now }})
	ss := r.Open("s")
	st := ss.Attach()
	c := tile.Coord{Level: 3, Y: 1, X: 2}
	if n := pushOnce(t, r, st, c); n != 1 {
		t.Fatalf("first push framed %d tiles, want 1", n)
	}
	now = now.Add(100 * time.Millisecond)
	if n := pushOnce(t, r, st, c); n != 0 {
		t.Fatalf("re-push of a held tile framed %d tiles, want 0", n)
	}
	if got := r.Stats(); got.Pushed != 1 {
		t.Fatalf("Stats.Pushed = %d, want 1: a skipped re-push is not a push", got.Pushed)
	}
	now = now.Add(150 * time.Millisecond)
	if lead, ok := ss.Consumed(c); !ok || lead != 250*time.Millisecond {
		t.Fatalf("Consumed = %v, %v; want 250ms from the carrying push", lead, ok)
	}
}

// TestRegistryRepushAfterConsumed: once the session has consumed a tile,
// the client's slot is gone and the next push frames it again.
func TestRegistryRepushAfterConsumed(t *testing.T) {
	r := NewRegistry(Config{})
	ss := r.Open("s")
	st := ss.Attach()
	c := tile.Coord{Level: 2, X: 1}
	if n := pushOnce(t, r, st, c) + pushOnce(t, r, st, c); n != 1 {
		t.Fatalf("two pushes before a consume framed %d tiles, want 1", n)
	}
	if _, ok := ss.Consumed(c); !ok {
		t.Fatal("pushed tile not consumed")
	}
	if n := pushOnce(t, r, st, c); n != 1 {
		t.Fatalf("push after the consume framed %d tiles, want 1", n)
	}
	if got := r.Stats(); got.Pushed != 2 {
		t.Fatalf("Stats.Pushed = %d, want 2", got.Pushed)
	}
}

// TestRegistryRepushWindow: the client's FIFO of SlotCap slots cannot have
// evicted a tile until SlotCap frames followed it, so a re-push is skipped
// after SlotCap-1 other frames and framed after SlotCap.
func TestRegistryRepushWindow(t *testing.T) {
	r := NewRegistry(Config{})
	st := r.Attach("s")
	c := tile.Coord{Level: 5}
	pushOnce(t, r, st, c)
	for i := 1; i < SlotCap; i++ {
		pushOnce(t, r, st, tile.Coord{Level: 6, X: i})
	}
	if n := pushOnce(t, r, st, c); n != 0 {
		t.Fatalf("re-push after %d other frames framed %d tiles, want 0", SlotCap-1, n)
	}
	pushOnce(t, r, st, tile.Coord{Level: 6, X: SlotCap})
	if n := pushOnce(t, r, st, c); n != 1 {
		t.Fatalf("re-push after %d other frames framed %d tiles, want 1", SlotCap, n)
	}
}

// TestRegistryDroppedFrameLeavesNoStamp: a frame lost to a full buffer
// never reached the client, so the next push of its tile frames it, and the
// one after that is skipped.
func TestRegistryDroppedFrameLeavesNoStamp(t *testing.T) {
	r := NewRegistry(Config{})
	ss := r.Open("s")
	st := ss.Attach()
	for i := 0; i < streamBuffer; i++ {
		c := tile.Coord{Level: 7, X: i}
		r.Push("s", "m", c, 1, testTile(c))
	}
	c := tile.Coord{Level: 7, Y: 1}
	if r.Push("s", "m", c, 1, testTile(c)) {
		t.Fatal("push onto a full buffer accepted")
	}
	if got := r.Stats(); got.Dropped != 1 {
		t.Fatalf("Stats.Dropped = %d, want 1", got.Dropped)
	}
	if _, ok := ss.Consumed(c); ok {
		t.Fatal("the dropped frame left a push stamp")
	}
	if n := pushOnce(t, r, st, c); n != 1 {
		t.Fatalf("push after the drop framed %d tiles, want 1", n)
	}
	if n := pushOnce(t, r, st, c); n != 0 {
		t.Fatalf("re-push of the delivered tile framed %d tiles, want 0", n)
	}
}

// TestRegistrySupersedingStreamGetsTileAgain: a re-attach starts a client
// connection that holds nothing the old stream carried, so its pushes and
// backfill frame every tile again.
func TestRegistrySupersedingStreamGetsTileAgain(t *testing.T) {
	r := NewRegistry(Config{})
	old := r.Attach("s")
	c := tile.Coord{Level: 4, X: 3}
	if n := pushOnce(t, r, old, c) + pushOnce(t, r, old, c); n != 1 {
		t.Fatalf("two pushes on one stream framed %d tiles, want 1", n)
	}
	st := r.Attach("s")
	if n := pushOnce(t, r, st, c); n != 1 {
		t.Fatalf("push on the superseding stream framed %d tiles, want 1", n)
	}
	next := r.Attach("s")
	if !r.Backfill(next, "m", c, testTile(c)) || len(drained(next)) != 1 {
		t.Fatal("backfill on a fresh stream did not frame the tile")
	}
}

// TestRegistryBackfillFramesSharedTileOnce: a tile cached in two model
// regions is backfilled once, and counted once.
func TestRegistryBackfillFramesSharedTileOnce(t *testing.T) {
	r := NewRegistry(Config{})
	st := r.Attach("s")
	c := tile.Coord{Level: 2, Y: 1}
	for _, model := range []string{"markov3", "hotspot"} {
		if !r.Backfill(st, model, c, testTile(c)) {
			t.Fatalf("backfill for %s refused", model)
		}
	}
	if got := drained(st); len(got) != 1 {
		t.Fatalf("backfill framed %v, want %v once", got, c)
	}
	if got := r.Stats(); got.Pushed != 1 || got.Backfilled != 1 {
		t.Fatalf("stats = %+v, want 1 pushed, 1 backfilled", got)
	}
}

// TestRegistryRepushRace: pushers, a consumer and a re-attacher share one
// session. No stream is drained, so none carries SlotCap frames: on every
// stream a tile nobody consumes is framed at most once, whatever the
// interleaving, while consumed tiles may come again; every counted push is
// a frame on some stream.
func TestRegistryRepushRace(t *testing.T) {
	r := NewRegistry(Config{})
	ss := r.Open("s")
	held := make([]*tile.Tile, 8)
	taken := make([]*tile.Tile, 8)
	for i := range held {
		held[i] = testTile(tile.Coord{Level: 4, X: i})
		taken[i] = testTile(tile.Coord{Level: 4, Y: 1, X: i})
	}
	streams := []*Stream{ss.Attach()}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				for _, tl := range []*tile.Tile{held[i%8], taken[(i+w)%8]} {
					ss.Push("m", tl.Coord, 1, tl)
				}
			}
		}()
	}
	for i := 0; i < 400; i++ {
		ss.Consumed(taken[i%8].Coord)
		if i%40 == 39 {
			streams = append(streams, ss.Attach())
		}
	}
	wg.Wait()
	frames := 0
	for _, st := range streams {
		seen := make(map[tile.Coord]bool)
		for _, c := range drained(st) {
			frames++
			if c.Y == 0 && seen[c] {
				t.Fatalf("stream carried unconsumed %v twice", c)
			}
			seen[c] = true
		}
	}
	if got := r.Stats(); got.Pushed != frames {
		t.Fatalf("Stats.Pushed = %d, streams carried %d frames", got.Pushed, frames)
	}
}
