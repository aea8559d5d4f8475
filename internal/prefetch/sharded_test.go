package prefetch

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"forecache/internal/tile"
)

// sessionsOnDistinctShards returns two session ids the sharded scheduler
// routes to different shards (they exist for any n >= 2: the ring is
// balanced enough that 64 candidate ids never all land on one shard).
func sessionsOnDistinctShards(t *testing.T, ss *Scheduler) (string, string) {
	t.Helper()
	first := ""
	for i := 0; i < 64; i++ {
		id := fmt.Sprintf("fleet-user-%d", i)
		if first == "" {
			first = id
			continue
		}
		if ss.Shard(id) != ss.Shard(first) {
			return first, id
		}
	}
	t.Fatal("64 session ids all routed to one shard; ring is broken")
	return "", ""
}

// TestCrossShardSingleFlight: two sessions on DIFFERENT shards wanting
// the same tile still cost one DBMS fetch — the deployment-wide
// CoalescingStore joins the second shard's worker onto the first's
// in-flight round trip, and both sessions' Deliver callbacks run.
func TestCrossShardSingleFlight(t *testing.T) {
	store := newFakeStore()
	store.gate = make(chan struct{})
	store.started = make(chan tile.Coord, 16)
	ss := NewScheduler(store, Config{Shards: 4, Workers: 4})
	defer ss.Close()
	s1, s2 := sessionsOnDistinctShards(t, ss)

	shared := tile.Coord{Level: 3, Y: 2, X: 1}
	var mu sync.Mutex
	delivered := map[string]int{}
	deliver := func(id string) func(*tile.Tile) {
		return func(*tile.Tile) {
			mu.Lock()
			delivered[id]++
			mu.Unlock()
		}
	}

	// s1's shard starts the only real fetch and blocks on the gate.
	ss.Submit(s1, []Request{{Coord: shared, Score: 1, Deliver: deliver(s1)}})
	<-store.started

	// s2's shard must join it, not issue a second fetch: wait until the
	// store reports the join before releasing the gate.
	ss.Submit(s2, []Request{{Coord: shared, Score: 1, Deliver: deliver(s2)}})
	deadline := time.Now().Add(5 * time.Second)
	for ss.store.Joined() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("second shard's fetch never joined the in-flight one")
		}
		time.Sleep(time.Millisecond)
	}
	close(store.gate)
	ss.Drain()

	if got := store.count(shared); got != 1 {
		t.Errorf("store fetched the shared tile %d times, want 1 (cross-shard single-flight)", got)
	}
	mu.Lock()
	defer mu.Unlock()
	if delivered[s1] != 1 || delivered[s2] != 1 {
		t.Errorf("deliveries = %v, want one per session", delivered)
	}
	if st := ss.Stats(); st.CrossShardCoalesced != 1 {
		t.Errorf("CrossShardCoalesced = %d, want 1", st.CrossShardCoalesced)
	}
}

// TestShardedRoutingDisjoint: every session's scheduler state lives on
// exactly its ring-assigned shard, and CancelSession reaches it there.
func TestShardedRoutingDisjoint(t *testing.T) {
	store := newFakeStore()
	store.gate = make(chan struct{}) // hold fetches so queues stay visible
	ss := NewScheduler(store, Config{Shards: 4, Workers: 4, QueuePerSession: 8})
	// Release the gate before Close: Close waits for workers, and workers
	// wait on the gate — deferred in this order, gate opens first.
	defer ss.Close()
	defer close(store.gate)

	const sessions = 32
	for i := 0; i < sessions; i++ {
		id := fmt.Sprintf("user-%d", i)
		reqs := make([]Request, 4)
		for j := range reqs {
			reqs[j] = Request{Coord: tile.Coord{Level: 6, Y: i, X: j}, Score: 1}
		}
		if got := ss.Submit(id, reqs); got != 4 {
			t.Fatalf("Submit(%s) accepted %d, want 4", id, got)
		}
	}

	_, perShard := ss.Snapshot()
	for i := 0; i < sessions; i++ {
		id := fmt.Sprintf("user-%d", i)
		home := ss.ring.Locate(id)
		for sh, st := range perShard {
			_, present := st.QueueDepths[id]
			if present != (sh == home) {
				t.Errorf("session %s state on shard %d (present=%v), home shard is %d", id, sh, present, home)
			}
		}
	}

	victim := "user-7"
	ss.CancelSession(victim)
	st, _, _ := ss.Shard(victim).statsDetail()
	if _, ok := st.QueueDepths[victim]; ok {
		t.Errorf("CancelSession(%s) left state on the home shard", victim)
	}
}

// TestShardedStatsAggregation: the deployment-wide snapshot is exactly
// the sum of the per-shard snapshots, the session maps merge disjointly,
// and repeated snapshots stay monotone on the counter fields.
func TestShardedStatsAggregation(t *testing.T) {
	store := newFakeStore()
	ss := NewScheduler(store, Config{Shards: 3, Workers: 8, QueuePerSession: 64})
	defer ss.Close()

	const sessions, batch = 48, 5
	for i := 0; i < sessions; i++ {
		id := fmt.Sprintf("agg-user-%d", i)
		reqs := make([]Request, batch)
		for j := range reqs {
			// Distinct coords per session: no coalescing, so the expected
			// counter totals are exact.
			reqs[j] = Request{Coord: tile.Coord{Level: 7, Y: i, X: j}, Score: float64(batch - j)}
		}
		ss.Submit(id, reqs)
	}
	ss.Drain()

	agg, per := ss.Snapshot()
	if agg.Shards != 3 {
		t.Errorf("Shards = %d, want 3", agg.Shards)
	}
	if agg.Queued != sessions*batch || agg.Completed != sessions*batch {
		t.Errorf("Queued/Completed = %d/%d, want %d each", agg.Queued, agg.Completed, sessions*batch)
	}
	if agg.Sessions != sessions {
		t.Errorf("Sessions = %d, want %d", agg.Sessions, sessions)
	}

	var sumQueued, sumCompleted, sumSess, sumDepth int
	for _, st := range per {
		sumQueued += st.Queued
		sumCompleted += st.Completed
		sumSess += st.Sessions
		sumDepth += len(st.QueueDepths)
	}
	if sumQueued != agg.Queued || sumCompleted != agg.Completed || sumSess != agg.Sessions {
		t.Errorf("per-shard sums (%d, %d, %d) != aggregate (%d, %d, %d)",
			sumQueued, sumCompleted, sumSess, agg.Queued, agg.Completed, agg.Sessions)
	}
	if sumDepth != len(agg.QueueDepths) {
		t.Errorf("merged QueueDepths has %d sessions, per-shard total %d: overlap", len(agg.QueueDepths), sumDepth)
	}

	// More work can only grow the counters.
	ss.Submit("agg-user-0", []Request{{Coord: tile.Coord{Level: 7, Y: 99, X: 0}, Score: 1}})
	ss.Drain()
	again := ss.Stats()
	if again.Queued < agg.Queued || again.Completed < agg.Completed || again.Coalesced < agg.Coalesced {
		t.Errorf("counters decreased across snapshots: %+v then %+v", agg, again)
	}
}

// TestShardedBudgetDivision: the deployment-wide worker and global-queue
// budgets are divided across shards, so a sharded deployment does not
// silently multiply its fetch concurrency or admission budget.
func TestShardedBudgetDivision(t *testing.T) {
	store := newFakeStore()
	ss := NewScheduler(store, Config{Shards: 4, Workers: 8, GlobalQueue: 100})
	defer ss.Close()
	for _, sh := range ss.shards {
		if sh.cfg.Workers != 2 {
			t.Errorf("per-shard workers = %d, want 2 (8 over 4 shards)", sh.cfg.Workers)
		}
		if sh.cfg.GlobalQueue != 25 {
			t.Errorf("per-shard global queue = %d, want 25 (100 over 4 shards)", sh.cfg.GlobalQueue)
		}
	}
	// Ceiling division never starves a shard of its last worker.
	ss2 := NewScheduler(store, Config{Shards: 4, Workers: 2})
	defer ss2.Close()
	for _, sh := range ss2.shards {
		if sh.cfg.Workers != 1 {
			t.Errorf("per-shard workers = %d, want 1 minimum", sh.cfg.Workers)
		}
	}
}

// TestShardedCloseIdempotent: Close fans out to every shard and is safe
// to call twice; Submit after Close accepts nothing.
func TestShardedCloseIdempotent(t *testing.T) {
	store := newFakeStore()
	ss := NewScheduler(store, Config{Shards: 2, Workers: 4})
	ss.Submit("u", []Request{{Coord: tile.Coord{Level: 1}, Score: 1}})
	ss.Close()
	ss.Close()
	if got := ss.Submit("u", []Request{{Coord: tile.Coord{Level: 2}, Score: 1}}); got != 0 {
		t.Errorf("Submit after Close accepted %d, want 0", got)
	}
}
