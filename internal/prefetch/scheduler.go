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
// one shard, so per-session semantics (batch superseding, fair-share
// pressure, queue budgets) are untouched.

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
// Every per-session operation routes to the session's home shard; Stats,
// Drain and Close fan out over all of them. Construct with NewScheduler; it
// is safe for concurrent use by any number of sessions.
type Scheduler struct {
	ring   *shard.Ring
	shards []*Shard
	// store is what every shard fetches through. With one shard it joins
	// nothing: the shard's own flight table already coalesces all it sees.
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
// passes through unchanged). The store is wrapped in one shared
// CoalescingStore so cross-shard duplicates still cost one DBMS fetch.
// Shared learning state (cfg.Utility, cfg.Obs, cfg.Push) is deployment-wide
// by construction: every shard feeds the same collector, pipeline and push
// registry. Call Close to stop all worker pools.
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
		store:  NewCoalescingStore(store),
		total:  cfg.GlobalQueue,
	}
	for i := range s.shards {
		s.shards[i] = newShard(s.store, per)
	}
	return s
}

// NumShards returns the shard count.
func (s *Scheduler) NumShards() int { return len(s.shards) }

// Shard returns the shard owning session. Engines are bound to their
// session's shard at construction (core.Config.Scheduler), so the routing
// hash is paid once per session, not once per request.
func (s *Scheduler) Shard(session string) *Shard {
	return s.shards[s.ring.Locate(session)]
}

// Submit routes the batch to the session's shard; see Shard.Submit.
func (s *Scheduler) Submit(session string, reqs []Request) int {
	return s.Shard(session).Submit(session, reqs)
}

// CancelSession drops the session's queued entries on its shard.
func (s *Scheduler) CancelSession(session string) {
	s.Shard(session).CancelSession(session)
}

// Pressure reports the deployment-wide queue saturation: total pending
// entries over the total global budget. One slammed shard next to idle
// ones therefore reads as partial pressure — the per-shard signal engines
// actually shrink on comes from their own shard's Pressure.
func (s *Scheduler) Pressure() float64 {
	pending := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		pending += sh.stats.Pending
		sh.mu.Unlock()
	}
	return saturation(pending, s.total)
}

// SessionPressure reports the fair-share backpressure signal from the
// session's home shard (fairness is scoped to the sessions actually
// contending on that shard's queue).
func (s *Scheduler) SessionPressure(session string) float64 {
	return s.Shard(session).SessionPressure(session)
}

// Snapshot takes each shard's snapshot exactly once and returns both views
// of it: the deployment-wide aggregate and the per-shard Stats it was
// summed from (index = shard id), so within one Snapshot the per-shard
// counters add up to the totals even while workers run.
// Counters are sums of per-shard counters: each shard's are monotone and
// the shard set is fixed for the scheduler's lifetime, so the sums are
// monotone too. Session-keyed maps merge disjointly (a session lives on
// exactly one shard). AvgQueueLatency is weighted by each shard's
// measured entry count, PeakPending is the sum of per-shard peaks (an
// upper bound on the true simultaneous peak), and Pressure is the
// deployment-wide saturation.
func (s *Scheduler) Snapshot() (Stats, []Stats) {
	var agg Stats
	agg.Shards = len(s.shards)
	agg.QueueDepths = make(map[string]int)
	agg.SessionPressures = make(map[string]float64)
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
		agg.Pushed += st.Pushed
		agg.Errors += st.Errors
		agg.Pending += st.Pending
		agg.PeakPending += st.PeakPending
		agg.Inflight += st.Inflight
		agg.Sessions += st.Sessions
		for id, d := range st.QueueDepths {
			agg.QueueDepths[id] = d
		}
		for id, p := range st.SessionPressures {
			agg.SessionPressures[id] = p
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
	agg.CrossShardCoalesced = s.store.Joined()
	return agg, per
}

// Stats is Snapshot's deployment-wide view alone.
func (s *Scheduler) Stats() Stats {
	agg, _ := s.Snapshot()
	return agg
}

// ShardStats is Snapshot's per-shard view alone.
func (s *Scheduler) ShardStats() []Stats {
	_, per := s.Snapshot()
	return per
}

// Drain blocks until every shard's queue and in-flight set are empty.
// Deliveries for completed fetches finish before Drain returns, so tests
// and examples can read caches deterministically afterwards.
func (s *Scheduler) Drain() {
	for _, sh := range s.shards {
		sh.drain()
	}
}

// Close stops every shard's worker pool after cancelling all queued
// entries and waits for in-flight fetches to finish delivering. Idempotent.
func (s *Scheduler) Close() {
	for _, sh := range s.shards {
		sh.close()
	}
}
