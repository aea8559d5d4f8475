package cache

import (
	"testing"
	"time"

	"forecache/internal/obs"
	"forecache/internal/trace"
)

// TestLeadTimeObserved: with a pipeline attached, the first consumption of
// a prefetched entry reports insert-to-consume lead time — exactly once,
// measured on the injected clock.
func TestLeadTimeObserved(t *testing.T) {
	p := obs.NewPipeline(obs.Config{})
	m := NewManager(4)
	m.SetObs(p)
	now := time.Unix(1000, 0)
	m.now = func() time.Time { return now }

	m.SetAllocations(map[string]int{"ab": 2})
	tl := mkTile(1, 0, 0)
	m.InsertPrediction("ab", 0, tl, 0, trace.Foraging)

	now = now.Add(750 * time.Millisecond)
	if _, ok := m.Lookup(tl.Coord); !ok {
		t.Fatal("prefetched tile should hit")
	}
	if _, ok := m.Lookup(tl.Coord); !ok { // second hit: already consumed
		t.Fatal("tile should still hit")
	}

	snap := p.LeadTime.Snapshot()
	if snap.Count != 1 {
		t.Fatalf("lead-time observations = %d, want 1 (first consumption only)", snap.Count)
	}
	if got, want := snap.Sum, 0.75; got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("lead time = %vs, want %vs", got, want)
	}
}

// TestLeadTimeMultiModelUsesOldestInsert: when several models predicted
// the tile, one lead-time sample is taken, measured from the earliest
// insert — how far ahead the prefetcher truly ran.
func TestLeadTimeMultiModelUsesOldestInsert(t *testing.T) {
	p := obs.NewPipeline(obs.Config{})
	m := NewManager(4)
	m.SetObs(p)
	now := time.Unix(1000, 0)
	m.now = func() time.Time { return now }

	m.SetAllocations(map[string]int{"ab": 2, "sb": 2})
	tl := mkTile(1, 0, 0)
	m.InsertPrediction("ab", 0, tl, 0, trace.Foraging)
	now = now.Add(400 * time.Millisecond)
	m.InsertPrediction("sb", 0, tl, 0, trace.Foraging)
	now = now.Add(100 * time.Millisecond)

	if _, ok := m.Lookup(tl.Coord); !ok {
		t.Fatal("tile should hit")
	}
	snap := p.LeadTime.Snapshot()
	if snap.Count != 1 {
		t.Fatalf("lead-time observations = %d, want 1", snap.Count)
	}
	if got, want := snap.Sum, 0.5; got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("lead time = %vs, want %vs (oldest insert)", got, want)
	}
}

// TestLeadTimeUntrackedWithoutObs: without a pipeline no timestamps are
// stamped, and attaching one later doesn't misreport pre-attach entries.
func TestLeadTimeUntrackedWithoutObs(t *testing.T) {
	m := NewManager(4)
	m.SetAllocations(map[string]int{"ab": 2})
	tl := mkTile(1, 0, 0)
	m.InsertPrediction("ab", 0, tl, 0, trace.Foraging)

	p := obs.NewPipeline(obs.Config{})
	m.SetObs(p) // attached after the insert: entry has no born stamp
	if _, ok := m.Lookup(tl.Coord); !ok {
		t.Fatal("tile should hit")
	}
	if got := p.LeadTime.Snapshot().Count; got != 0 {
		t.Fatalf("lead-time observations = %d, want 0 for unstamped entries", got)
	}
}
