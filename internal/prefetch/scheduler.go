package prefetch

import (
	"time"

	"forecache/internal/backend"
	"forecache/internal/memo"
	"forecache/internal/shard"
	"forecache/internal/tile"
)

// This file is the prefetch pipeline's fan-out: a Scheduler is N >= 1
// independent Shards — each with its own mutex, per-session queues, worker
// pool and pressure signal — behind a hash router keyed on
// session id. One process-wide scheduler lock is the serving tier's
// submit-path choke point at fleet scale (every session's Submit, Cancel
// and worker pop serializes on it); sharding multiplies the locks while
// the hash router keeps each session's whole scheduler life on
// one shard, so per-session semantics (batch superseding, queue budgets)
// are untouched.

// CoalescingStore wraps a backend.Store with deployment-wide single-flight
// on the prefetch path, the one thing that must not shard: concurrent
// FetchQuiet calls for one coordinate — typically scheduler workers on
// different shards — share one underlying fetch. Each shard's own flight
// table coalesces above it, fanning one fetch out to many Deliver
// callbacks without parking a worker. The response path (Fetch) is not
// coalesced: it charges latency per the paper's model and stays the
// engine's own concern. Safe for concurrent use.
type CoalescingStore struct {
	backend.Store
	flights *memo.Cache[tile.Coord, *tile.Tile] // budget 0: joins, retains nothing
}

// NewCoalescingStore wraps store. A nil store is a programming error and
// panics on first use, like handing the scheduler a nil store would.
func NewCoalescingStore(store backend.Store) *CoalescingStore {
	return &CoalescingStore{Store: store, flights: memo.New[tile.Coord, *tile.Tile](0, nil)}
}

// FetchQuiet fetches c, joining an identical in-flight fetch if one
// exists instead of issuing a duplicate.
func (cs *CoalescingStore) FetchQuiet(c tile.Coord) (*tile.Tile, error) {
	t, _, err := cs.flights.Get(c, func() (*tile.Tile, error) { return cs.Store.FetchQuiet(c) })
	return t, err
}

// Joined reports how many fetches piggybacked on another's in-flight
// round trip since construction.
func (cs *CoalescingStore) Joined() int { return int(cs.flights.Stats().Hits) }

// Scheduler is the shared asynchronous prefetch pipeline: Config.Shards
// independent Shards behind a hash router keyed on session id.
// Open routes a session to its home shard once; Stats, Drain and Close fan
// out over all the shards. Construct with NewScheduler; it
// is safe for concurrent use by any number of sessions.
type Scheduler struct {
	ring   *shard.Ring
	shards []*Shard
	// store is what every shard fetches through, nil with one shard,
	// whose own flight table already coalesces all it sees.
	store *CoalescingStore
	// total is the *configured* deployment-wide GlobalQueue — the aggregate
	// pressure denominator. It must not be reconstructed as per-shard × n:
	// per-shard budgets are ceil-divided, so that product overshoots for
	// non-divisible splits (1024 over 3 shards → 342×3 = 1026) and pressure
	// would never read 1.0 at true saturation.
	total int
}

// NewScheduler starts cfg.Shards scheduler shards (one when unset) over
// store. The deployment-wide sizing in cfg is divided across shards: each
// gets ceil(Workers/n) workers and ceil(GlobalQueue/n) global-queue slots,
// so the fleet's total fetch concurrency and queue budget match what one
// shard with the same cfg would run (QueuePerSession is per-session and
// passes through unchanged). With more than one shard the store is
// wrapped in one shared CoalescingStore so cross-shard duplicates still
// cost one DBMS fetch. Shared learning state (cfg.Utility, cfg.Obs) is
// deployment-wide by construction: every shard feeds the same collector
// and pipeline. Call Close to stop all worker pools; a scheduler without
// workers starts no goroutine and needs no Close.
func NewScheduler(store backend.Store, cfg Config) *Scheduler {
	cfg = cfg.withDefaults()
	n := cfg.Shards
	per := cfg
	per.Workers = (cfg.Workers + n - 1) / n
	if cfg.GlobalQueue > 0 {
		per.GlobalQueue = (cfg.GlobalQueue + n - 1) / n
	}
	s := &Scheduler{
		ring:   shard.NewRing(n),
		shards: make([]*Shard, n),
		total:  cfg.GlobalQueue,
	}
	if n > 1 {
		s.store = NewCoalescingStore(store)
		store = s.store
	}
	for i := range s.shards {
		s.shards[i] = newShard(store, per)
	}
	return s
}

// Open returns a new handle on session id's queue, routed to its home
// shard once. sink (an untyped nil for a pull-only session) receives the
// session's completed fetches as push frames and prices its queued entries
// by the connection's drain rate. The handle becomes id's latest, which
// the string adapter Submit resolves to.
func (s *Scheduler) Open(id string, sink PushSink) *Session {
	sh := s.shards[s.ring.Locate(id)]
	sq := &Session{id: id, shard: sh, sink: sink}
	sh.mu.Lock()
	sh.byID[id] = sq
	sh.mu.Unlock()
	return sq
}

// Submit submits reqs to id's latest handle, opening a pull-only one on
// first use; see Session.Submit.
func (s *Scheduler) Submit(id string, reqs []Request) int {
	sh := s.shards[s.ring.Locate(id)]
	sh.mu.Lock()
	sq := sh.byID[id]
	if sq == nil {
		sq = &Session{id: id, shard: sh}
		sh.byID[id] = sq
	}
	sh.mu.Unlock()
	return sq.Submit(reqs)
}

// Snapshot takes each shard's snapshot exactly once and returns both views
// of it: the deployment-wide aggregate and the per-shard Stats it was
// summed from (index = shard id), so within one Snapshot the per-shard
// counters add up to the totals even while workers run.
// Counters are sums of per-shard counters: each shard's are monotone and
// the shard set is fixed for the scheduler's lifetime, so the sums are
// monotone too. QueueDepths merges disjointly (a session lives on
// exactly one shard). AvgQueueLatency is weighted by each shard's
// measured entry count, PeakPending is the sum of per-shard peaks (an
// upper bound on the true simultaneous peak), and Pressure is the
// deployment-wide saturation.
func (s *Scheduler) Snapshot() (Stats, []Stats) {
	var agg Stats
	agg.Shards = len(s.shards)
	agg.QueueDepths = make(map[string]int)
	per := make([]Stats, len(s.shards))
	var latency time.Duration
	measured := 0
	for i, sh := range s.shards {
		st, lat, n := sh.statsDetail()
		per[i] = st
		agg.Queued += st.Queued
		agg.Dropped += st.Dropped
		agg.Shed += st.Shed
		agg.Cancelled += st.Cancelled
		agg.Coalesced += st.Coalesced
		agg.Completed += st.Completed
		agg.Errors += st.Errors
		agg.Pending += st.Pending
		agg.PeakPending += st.PeakPending
		agg.Inflight += st.Inflight
		agg.Sessions += st.Sessions
		for id, d := range st.QueueDepths {
			agg.QueueDepths[id] = d
		}
		latency += lat
		measured += n
		// The utility collector is shared: every shard reports the same
		// curve, so the first shard's copy is the deployment's.
		if agg.UtilityCurve == nil {
			agg.UtilityCurve = st.UtilityCurve
			agg.UtilityObservations = st.UtilityObservations
		}
	}
	if measured > 0 {
		agg.AvgQueueLatency = latency / time.Duration(measured)
	}
	agg.Pressure = saturation(agg.Pending, s.total)
	if s.store != nil {
		agg.CrossShardCoalesced = s.store.Joined()
	}
	return agg, per
}

// Stats is Snapshot's deployment-wide view alone.
func (s *Scheduler) Stats() Stats {
	agg, _ := s.Snapshot()
	return agg
}

// Run fetches queued entries in the caller's goroutine, shard by shard,
// until it has issued n fetches or, for n < 0, nothing is queued, and
// returns the fetches issued: how a scheduler without workers progresses.
func (s *Scheduler) Run(n int) int {
	done := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		for done != n && sh.step() {
			done++
		}
		sh.mu.Unlock()
	}
	return done
}

// Drain blocks until every shard's queue and in-flight set are empty. A
// flight leaves the set only after its step has run every waiter's
// Deliver and push, so tests and examples can read caches and streams
// deterministically afterwards. Without workers only Run empties a queue.
func (s *Scheduler) Drain() {
	for _, sh := range s.shards {
		sh.drain()
	}
}

// Close stops every shard's worker pool after cancelling all queued
// entries and waits for the workers, which finish delivering their
// in-flight fetches first. Idempotent.
func (s *Scheduler) Close() {
	for _, sh := range s.shards {
		sh.close()
	}
}
