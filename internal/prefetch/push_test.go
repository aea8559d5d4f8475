package prefetch

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"forecache/internal/tile"
)

// fakeSink records every push offered to the sessions opened through it
// and serves per-session drain delays, counting how often they are read.
type fakeSink struct {
	mu         sync.Mutex
	pushes     []sinkPush
	refuse     bool
	delays     map[string]time.Duration
	delayReads int
}

type sinkPush struct {
	session, model string
	coord          tile.Coord
	score          float64
}

// open opens id on s with a PushSink that reports to f under id; later
// string-form Submits for id reach that handle.
func (f *fakeSink) open(s *Scheduler, id string) *Session {
	return s.Open(id, sessionSink{f, id})
}

// sessionSink is one session's PushSink view of a fakeSink.
type sessionSink struct {
	f       *fakeSink
	session string
}

func (ss sessionSink) Push(model string, c tile.Coord, score float64, t *tile.Tile) bool {
	f := ss.f
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.refuse {
		return false
	}
	f.pushes = append(f.pushes, sinkPush{session: ss.session, model: model, coord: c, score: score})
	return true
}

func (ss sessionSink) DrainDelay() time.Duration {
	f := ss.f
	f.mu.Lock()
	defer f.mu.Unlock()
	f.delayReads++
	return f.delays[ss.session]
}

func (f *fakeSink) all() []sinkPush {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]sinkPush(nil), f.pushes...)
}

// TestPushDispatch: with a sink configured, every completed fetch is
// offered to the waiter's session stream with its model/score attribution,
// after the cache delivery.
func TestPushDispatch(t *testing.T) {
	store := newFakeStore()
	sink := &fakeSink{}
	s := NewScheduler(store, Config{Workers: 2})
	defer s.Close()
	sink.open(s, "viewer")

	var deliveredMu sync.Mutex
	deliveredBeforePush := true
	c := tile.Coord{Level: 4, Y: 2, X: 3}
	s.Submit("viewer", []Request{{
		Coord: c, Score: 0.9, Model: "markov",
		Deliver: func(*tile.Tile) {
			deliveredMu.Lock()
			// If the sink already saw the push, ordering is broken.
			if len(sink.all()) != 0 {
				deliveredBeforePush = false
			}
			deliveredMu.Unlock()
		},
	}})
	s.Drain()

	got := sink.all()
	if len(got) != 1 {
		t.Fatalf("pushes = %v, want exactly 1", got)
	}
	p := got[0]
	if p.session != "viewer" || p.model != "markov" || p.coord != c || p.score != 0.9 {
		t.Fatalf("push attribution: %+v", p)
	}
	deliveredMu.Lock()
	ok := deliveredBeforePush
	deliveredMu.Unlock()
	if !ok {
		t.Fatal("push frame dispatched before the cache delivery")
	}
	if st := s.Stats(); st.Pushed != 1 {
		t.Fatalf("Stats.Pushed = %d, want 1", st.Pushed)
	}
}

// TestPushDispatchCoalesced: one coalesced fetch pushes to every waiting
// session under its own id, and refused pushes are not counted.
func TestPushDispatchCoalesced(t *testing.T) {
	store := newFakeStore()
	store.gate = make(chan struct{})
	sink := &fakeSink{}
	s := NewScheduler(store, Config{Workers: 4})
	defer s.Close()

	shared := tile.Coord{Level: 3, Y: 1, X: 1}
	for i := 0; i < 3; i++ {
		sink.open(s, fmt.Sprintf("s%d", i))
		s.Submit(fmt.Sprintf("s%d", i), []Request{{Coord: shared, Score: 1, Model: "m"}})
	}
	close(store.gate)
	s.Drain()

	sessions := map[string]bool{}
	for _, p := range sink.all() {
		sessions[p.session] = true
	}
	if len(sessions) != 3 {
		t.Fatalf("pushed sessions = %v, want s0,s1,s2", sessions)
	}
	if st := s.Stats(); st.Pushed != 3 {
		t.Fatalf("Stats.Pushed = %d, want 3", st.Pushed)
	}

	// A refusing sink (no stream attached / buffer full) costs nothing.
	sink.mu.Lock()
	sink.refuse = true
	sink.mu.Unlock()
	other := tile.Coord{Level: 3, Y: 2, X: 2}
	s.Submit("s0", []Request{{Coord: other, Score: 1}})
	s.Drain()
	if st := s.Stats(); st.Pushed != 3 {
		t.Fatalf("refused push counted: Stats.Pushed = %d, want 3", st.Pushed)
	}
}

// TestPushBandwidthAdmission: at global saturation, an incumbent whose
// session drains slowly loses the admission fight against an equal-scored
// newcomer on a fast connection — and without drain-delay asymmetry the
// incumbent keeps its slot (ties keep the incumbent), proving the
// bandwidth term alone flipped the outcome.
func TestPushBandwidthAdmission(t *testing.T) {
	run := func(slowDelay time.Duration) (accepted int, st Stats) {
		store := newFakeStore()
		store.gate = make(chan struct{})
		store.started = make(chan tile.Coord, 4)
		sink := &fakeSink{delays: map[string]time.Duration{"slow": slowDelay}}
		now := time.Unix(1000, 0)
		s := NewScheduler(store, Config{
			Workers:       1,
			GlobalQueue:   1,
			DecayHalfLife: 50 * time.Millisecond,
			clock:         func() time.Time { return now },
		})
		defer s.Close()
		sink.open(s, "slow")
		sink.open(s, "fast")

		// Park the lone worker on a decoy fetch so queued entries stay put.
		s.Submit("decoy", []Request{{Coord: tile.Coord{Level: 9}, Score: 2}})
		<-store.started

		// The slow session fills the only global slot...
		if n := s.Submit("slow", []Request{{Coord: tile.Coord{Level: 1, X: 1}, Score: 1}}); n != 1 {
			t.Fatalf("slow submit accepted %d, want 1", n)
		}
		// ...then an equal-scored entry from a fast session fights for it.
		accepted = s.Submit("fast", []Request{{Coord: tile.Coord{Level: 1, X: 2}, Score: 1}})
		st = s.Stats()
		close(store.gate)
		s.Drain()
		return accepted, st
	}

	// Symmetric drain rates: the tie keeps the incumbent.
	if accepted, st := run(0); accepted != 0 || st.Shed != 0 || st.Dropped != 1 {
		t.Fatalf("no-asymmetry control: accepted=%d stats=%+v, want newcomer dropped", accepted, st)
	}
	// The slow session's entry ages by its drain delay and is shed.
	if accepted, st := run(200 * time.Millisecond); accepted != 1 || st.Shed != 1 {
		t.Fatalf("bandwidth case: accepted=%d stats=%+v, want incumbent shed", accepted, st)
	}
}

// TestDrainDelayReadOnlyWhenSaturated: the drain delay prices saturated
// admissions only, so an unsaturated Submit never reads it (each read takes
// the sink's lock while the shard's is held); a saturated one does.
func TestDrainDelayReadOnlyWhenSaturated(t *testing.T) {
	sink := &fakeSink{}
	s, _ := parkedScheduler(t, newFakeClock(), Config{GlobalQueue: 2, QueuePerSession: 8})
	sink.open(s, "a")
	sink.open(s, "b")
	reads := func() int {
		sink.mu.Lock()
		defer sink.mu.Unlock()
		return sink.delayReads
	}
	s.Submit("a", []Request{{Coord: coordAt(0), Score: 1}, {Coord: coordAt(1), Score: 1}})
	s.Submit("a", []Request{{Coord: coordAt(2), Score: 1}})
	if n := reads(); n != 0 {
		t.Fatalf("unsaturated submits read the drain delay %d times, want 0", n)
	}
	s.Submit("b", []Request{{Coord: coordAt(3), Score: 1}, {Coord: coordAt(4), Score: 1}})
	if n := reads(); n == 0 {
		t.Fatal("a saturated submit priced its admission without the drain delay")
	}
}

// TestShardedPressureSaturation pins the aggregate-pressure bugfix and the
// shard-sum invariants for every shard count: with a global budget that
// does not divide evenly across shards (1024 over 3), deployment-wide
// pressure must read exactly 1.0 when exactly the configured budget is
// pending — not pending over the ceil-divided per-shard budgets times the
// shard count (342×3 = 1026 would cap it at 0.998) — and the per-shard
// snapshots must sum to the deployment totals.
func TestShardedPressureSaturation(t *testing.T) {
	const budget = 1024
	for _, shards := range []int{1, 2, 3, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			store := newFakeStore()
			store.gate = make(chan struct{})
			// Buffer covers every fetch the test triggers (the decoys plus
			// the fills): fetch starts announced after the gate opens must
			// never block.
			store.started = make(chan tile.Coord, budget+shards)
			ss := NewScheduler(store, Config{Shards: shards, Workers: shards, QueuePerSession: budget, GlobalQueue: budget})
			defer ss.Close()
			if got := len(ss.shards); got != shards {
				t.Fatalf("shards = %d, want %d", got, shards)
			}

			// One shard-local session per shard, found by probing the ring.
			local := make([]string, shards)
			for k := range local {
				for i := 0; local[k] == ""; i++ {
					if id := fmt.Sprintf("sess-%d", i); ss.ring.Locate(id) == k {
						local[k] = id
					}
				}
			}

			// Park each shard's lone worker on a gated decoy fetch so
			// everything submitted afterwards stays pending.
			for k, id := range local {
				ss.Submit(id, []Request{{Coord: tile.Coord{Level: 9, X: k}, Score: 2}})
			}
			for range local {
				<-store.started
			}

			// Fill to exactly the configured deployment-wide budget. Shards
			// cap at their ceil-divided share, so the split respects the
			// per-shard limits while the total hits the configured budget
			// (342 + 342 + 340 over three shards).
			per := (budget + shards - 1) / shards
			pending := 0
			for k := range local {
				n := per
				if budget-pending < n {
					n = budget - pending
				}
				reqs := make([]Request, n)
				for i := range reqs {
					reqs[i] = Request{Coord: tile.Coord{Level: 5, Y: k, X: i}, Score: 1}
				}
				pending += ss.Submit(local[k], reqs)
			}
			if pending != budget {
				t.Fatalf("pending = %d, want the full budget %d", pending, budget)
			}
			st := ss.Stats()
			if st.Pressure != 1.0 {
				t.Fatalf("Stats().Pressure at exact saturation = %v, want exactly 1.0", st.Pressure)
			}
			if st.Shards != shards {
				t.Errorf("Stats().Shards = %d, want %d", st.Shards, shards)
			}
			close(store.gate)
			ss.Drain()

			st, perShard := ss.Snapshot()
			var queued, completed int
			for _, sh := range perShard {
				queued += sh.Queued
				completed += sh.Completed
			}
			if queued != st.Queued || completed != st.Completed || st.Completed != budget+shards {
				t.Errorf("per-shard queued/completed sum to %d/%d, totals %d/%d, want %d each",
					queued, completed, st.Queued, st.Completed, budget+shards)
			}
			if shards == 1 && st.CrossShardCoalesced != 0 {
				t.Errorf("one shard joined %d fetches across shards, want 0", st.CrossShardCoalesced)
			}
		})
	}
}
