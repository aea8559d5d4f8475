package prefetch

import (
	"container/heap"
	"sort"
	"sync"
	"time"

	"forecache/internal/backend"
	"forecache/internal/tile"
)

// entry states.
const (
	stateQueued = iota
	stateDone   // cancelled, coalesced, or handed to a worker
)

// entry is one queued Request plus its scheduling bookkeeping.
type entry struct {
	req      Request
	session  string
	seq      uint64 // tiebreak: earlier submissions first at equal score
	enqueued time.Time
	state    int
}

// entryHeap orders a session's pending entries by score descending.
type entryHeap []*entry

func (h entryHeap) Len() int { return len(h) }
func (h entryHeap) Less(i, j int) bool {
	if h[i].req.Score != h[j].req.Score {
		return h[i].req.Score > h[j].req.Score
	}
	return h[i].seq < h[j].seq
}
func (h entryHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *entryHeap) Push(x any)   { *h = append(*h, x.(*entry)) }
func (h *entryHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// sessionQueue holds one session's pending entries.
type sessionQueue struct {
	id      string
	pending entryHeap
	queued  int  // live (stateQueued) entries, for the budget
	inRing  bool // whether id is in the round-robin ring
}

// waiter is one Request waiting on a flight, tagged with its session so
// push dispatch (Config.Push) knows whose stream the tile belongs on.
type waiter struct {
	session string
	req     Request
}

// flight is one in-flight DBMS fetch and the requests waiting on it.
type flight struct {
	waiters []waiter
}

// Shard is one independent slice of the Scheduler: its own mutex,
// per-session queues, worker pool and pressure signal, serving the sessions
// the hash router routes to it. Engines bind to their session's
// Shard once (Scheduler.Shard), so the request path submits straight to the
// queue that owns the session. Safe for concurrent use by any number of
// sessions.
type Shard struct {
	store backend.Store
	cfg   Config

	mu         sync.Mutex
	work       *sync.Cond // signaled when queued work or shutdown arrives
	idle       *sync.Cond // signaled when queued+inflight may have drained
	sessions   map[string]*sessionQueue
	rr         []string // round-robin ring of session ids with pending work
	rrPos      int
	byCoord    map[tile.Coord]map[*entry]struct{} // queued entries by coordinate
	inflight   map[tile.Coord]*flight
	delivering int // completed fetches whose Deliver callbacks still run
	active     int // sessions with queued > 0, maintained on 0<->1 transitions
	seq        uint64
	closed     bool

	stats        Stats
	queueLatency time.Duration // summed over issued/coalesced entries
	measured     int

	wg sync.WaitGroup
}

// newShard starts one shard fetching from store with cfg.Workers workers;
// cfg already carries defaults and this shard's slice of the budgets.
func newShard(store backend.Store, cfg Config) *Shard {
	s := &Shard{
		store:    store,
		cfg:      cfg,
		sessions: make(map[string]*sessionQueue),
		byCoord:  make(map[tile.Coord]map[*entry]struct{}),
		inflight: make(map[tile.Coord]*flight),
	}
	s.work = sync.NewCond(&s.mu)
	s.idle = sync.NewCond(&s.mu)
	s.wg.Add(s.cfg.Workers)
	for i := 0; i < s.cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// Submit replaces session's pending batch with reqs: entries still queued
// from earlier batches are cancelled (their predictions are stale), then
// reqs are enqueued in score order subject to the per-session budget and
// the global one. When the global budget is saturated, each admission sheds
// the lowest-utility queued entry across all sessions (utility = score
// decayed by queue age and batch position), or rejects the newcomer if
// everything queued outranks it. Returns the number of entries accepted.
// Fetches already in flight are not interrupted. Safe to call concurrently;
// a no-op after Close.
func (s *Shard) Submit(session string, reqs []Request) int {
	now := s.cfg.clock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0
	}
	sq := s.sessions[session]
	if sq == nil {
		sq = &sessionQueue{id: session}
		s.sessions[session] = sq
	}
	s.cancelQueuedLocked(sq)
	// The bandwidth-aware admission term: with push delivery on, queued
	// entries age by the connection's measured per-frame drain time as well
	// as by wall clock, so tiles a slow stream cannot deliver before they
	// decay stale lose admission fights. 0 (pull mode, no stream, or no
	// measurement yet) prices exactly like the classic pull path.
	pushDelay := s.cfg.pushDelay(session)
	// Process the batch in descending score order: the queue was just
	// cleared, so when the budget truncates, it is exactly the batch's
	// lowest-scored entries that drop (the documented contract), whatever
	// order the caller built the slice in.
	order := make([]int, len(reqs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return reqs[order[a]].Score > reqs[order[b]].Score
	})
	var shed *shedHeap // built lazily on the first saturated admission
	accepted, enqueued := 0, 0
	for _, i := range order {
		// A fetch for this tile is already in flight (another session's,
		// typically): piggyback on it instead of queueing a duplicate.
		if fl, ok := s.inflight[reqs[i].Coord]; ok {
			fl.waiters = append(fl.waiters, waiter{session: session, req: reqs[i]})
			s.stats.Coalesced++
			accepted++
			continue
		}
		if sq.queued >= s.cfg.QueuePerSession {
			// Over budget for queueing — but keep scanning: lower-scored
			// requests may still piggyback on in-flight fetches at zero
			// queue cost.
			s.stats.Dropped++
			continue
		}
		if s.cfg.GlobalQueue > 0 && s.stats.Pending >= s.cfg.GlobalQueue {
			if shed == nil {
				shed = s.buildShedHeapLocked(now)
			}
			// The newcomer's admission utility is priced at the position it
			// will occupy: sq.queued entries sit ahead of it, so its
			// 0-indexed rank is sq.queued. (After the heap.Push below the
			// same rank reads sq.queued-1 — the counter has incremented by
			// then; the two sites price the same position.) With push
			// delivery on, the rank also charges drain time: the connection
			// must deliver rank+1 frames before this one reaches the client.
			u := decayedUtilityFactor(reqs[i].Score, time.Duration(sq.queued+1)*pushDelay, s.cfg.DecayHalfLife, s.cfg.positionFactor(sq.queued))
			if !s.shedLowestBelowLocked(shed, u) {
				s.stats.Dropped++
				continue
			}
		}
		s.seq++
		e := &entry{req: reqs[i], session: session, seq: s.seq, enqueued: now}
		heap.Push(&sq.pending, e)
		s.addQueuedLocked(sq, 1)
		s.stats.Pending++
		if s.stats.Pending > s.stats.PeakPending {
			s.stats.PeakPending = s.stats.Pending
		}
		if shed != nil {
			// This batch's own entries compete too: a tiny global budget
			// must keep only the batch's best. sq.queued-1 is this entry's
			// 0-indexed rank (the counter was just incremented), the same
			// position the admission check above priced it at. Because the
			// batch is processed in descending score order and position
			// factors are non-increasing, a later same-batch entry can
			// never outrank an earlier one — these candidates only ever
			// lose fights, they are here so the accounting stays exact.
			heap.Push(shed, shedCand{e: e, util: decayedUtilityFactor(e.req.Score, time.Duration(sq.queued)*pushDelay, s.cfg.DecayHalfLife, s.cfg.positionFactor(sq.queued-1))})
		}
		set := s.byCoord[e.req.Coord]
		if set == nil {
			set = make(map[*entry]struct{})
			s.byCoord[e.req.Coord] = set
		}
		set[e] = struct{}{}
		accepted++
		enqueued++
	}
	s.stats.Queued += accepted
	if enqueued > 0 {
		if !sq.inRing {
			sq.inRing = true
			s.rr = append(s.rr, session)
		}
		s.work.Broadcast()
	}
	return accepted
}

// CancelSession drops session's queued entries and forgets its scheduler
// state (used when the server evicts an idle session). In-flight fetches
// complete normally.
func (s *Shard) CancelSession(session string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sq := s.sessions[session]
	if sq == nil {
		return
	}
	s.cancelQueuedLocked(sq)
	if sq.inRing {
		s.removeFromRingLocked(session)
	}
	delete(s.sessions, session)
	s.idle.Broadcast()
}

// removeFromRingLocked drops one session id from the round-robin ring,
// keeping the rotation position stable.
func (s *Shard) removeFromRingLocked(session string) {
	for i, id := range s.rr {
		if id != session {
			continue
		}
		s.rr = append(s.rr[:i], s.rr[i+1:]...)
		if s.rrPos > i {
			s.rrPos--
		}
		return
	}
}

// drain blocks until no entries are queued and no fetches are in flight,
// and the deliveries for completed fetches have run.
func (s *Shard) drain() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.stats.Pending > 0 || len(s.inflight) > 0 || s.delivering > 0 {
		s.idle.Wait()
	}
}

// close stops the workers after cancelling all queued entries and waits for
// in-flight fetches to finish delivering. Idempotent.
func (s *Shard) close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	for _, sq := range s.sessions {
		s.cancelQueuedLocked(sq)
	}
	s.work.Broadcast()
	s.idle.Broadcast() // cancelling zeroed Pending: wake concurrent Drains
	s.mu.Unlock()
	s.wg.Wait()
	// Workers are gone; wait out the detached delivery goroutines too.
	s.mu.Lock()
	for s.delivering > 0 {
		s.idle.Wait()
	}
	s.mu.Unlock()
}

// statsDetail snapshots this shard's counters — internally consistent:
// every field is read under one hold of the shard lock — plus the raw
// queue-latency accumulators, so Scheduler.Snapshot can compute an
// exactly-weighted deployment-wide mean instead of averaging per-shard
// averages.
func (s *Shard) statsDetail() (Stats, time.Duration, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Shards = 1
	st.Inflight = len(s.inflight)
	st.Sessions = len(s.sessions)
	st.Pressure = s.pressureLocked()
	st.QueueDepths = make(map[string]int, len(s.sessions))
	st.SessionPressures = make(map[string]float64, len(s.sessions))
	active := s.active
	for id, sq := range s.sessions {
		st.QueueDepths[id] = sq.queued
		st.SessionPressures[id] = s.sessionPressureLocked(id, active)
	}
	if s.measured > 0 {
		st.AvgQueueLatency = s.queueLatency / time.Duration(s.measured)
	}
	if s.cfg.Utility != nil {
		st.UtilityCurve = s.cfg.Utility.Curve()
		st.UtilityObservations = s.cfg.Utility.Observations()
	}
	return st, s.queueLatency, s.measured
}

// addQueuedLocked adjusts a session's live-entry count, maintaining the
// shard's count of sessions with queued work (the fair-share N) on
// 0<->1 transitions so SessionPressure never scans the session table on
// the request hot path.
func (s *Shard) addQueuedLocked(sq *sessionQueue, delta int) {
	before := sq.queued
	sq.queued += delta
	switch {
	case before == 0 && sq.queued > 0:
		s.active++
	case before > 0 && sq.queued == 0:
		s.active--
	}
}

// cancelQueuedLocked marks all of sq's queued entries cancelled. It wakes
// Drain waiters: cancellation may have emptied the queue for good (e.g. a
// Submit whose whole batch is dropped or piggybacked enqueues nothing).
func (s *Shard) cancelQueuedLocked(sq *sessionQueue) {
	cancelled := false
	for _, e := range sq.pending {
		if e.state == stateQueued {
			e.state = stateDone
			s.detachLocked(e)
			s.stats.Cancelled++
			s.stats.Pending--
			cancelled = true
		}
	}
	sq.pending = sq.pending[:0]
	s.addQueuedLocked(sq, -sq.queued)
	if cancelled {
		s.idle.Broadcast()
	}
}

// detachLocked removes a no-longer-queued entry from the coordinate index.
func (s *Shard) detachLocked(e *entry) {
	if set, ok := s.byCoord[e.req.Coord]; ok {
		delete(set, e)
		if len(set) == 0 {
			delete(s.byCoord, e.req.Coord)
		}
	}
}

// popNextLocked picks the next entry to fetch: sessions with pending work
// are visited round-robin, and within a session the highest-scored entry
// wins. Returns nil when nothing is queued.
func (s *Shard) popNextLocked() *entry {
	for len(s.rr) > 0 {
		if s.rrPos >= len(s.rr) {
			s.rrPos = 0
		}
		id := s.rr[s.rrPos]
		sq := s.sessions[id]
		var e *entry
		for sq != nil && sq.pending.Len() > 0 {
			top := heap.Pop(&sq.pending).(*entry)
			if top.state != stateQueued {
				continue // lazily discarded (cancelled or coalesced)
			}
			e = top
			break
		}
		if e == nil {
			// Session has no live work: drop it from the rotation.
			if sq != nil {
				sq.inRing = false
			}
			s.rr = append(s.rr[:s.rrPos], s.rr[s.rrPos+1:]...)
			continue
		}
		s.rrPos++
		e.state = stateDone
		s.addQueuedLocked(sq, -1)
		s.detachLocked(e)
		return e
	}
	return nil
}

// worker is one pool goroutine: it pops entries fairly, coalesces
// duplicates, and issues at most one DBMS fetch at a time.
func (s *Shard) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		var e *entry
		for {
			e = s.popNextLocked()
			if e != nil || s.closed {
				break
			}
			s.work.Wait()
		}
		if e == nil { // closed and drained
			s.mu.Unlock()
			return
		}
		now := s.cfg.clock()
		s.accountLatencyLocked(e, now)
		s.stats.Pending--
		coord := e.req.Coord
		if fl, ok := s.inflight[coord]; ok {
			// Another worker is already fetching this tile: piggyback.
			fl.waiters = append(fl.waiters, waiter{session: e.session, req: e.req})
			s.stats.Coalesced++
			s.mu.Unlock()
			continue
		}
		fl := &flight{waiters: []waiter{{session: e.session, req: e.req}}}
		// Absorb queued duplicates from every session: one DBMS round trip
		// serves them all.
		for dup := range s.byCoord[coord] {
			dup.state = stateDone
			s.addQueuedLocked(s.sessions[dup.session], -1)
			fl.waiters = append(fl.waiters, waiter{session: dup.session, req: dup.req})
			s.accountLatencyLocked(dup, now)
			s.stats.Coalesced++
			s.stats.Pending--
		}
		delete(s.byCoord, coord)
		s.inflight[coord] = fl
		s.mu.Unlock()

		// The fetch timer reuses the queue-wait timestamp taken above, so
		// instrumentation costs one clock read per fetch, not two. The
		// duplicate-absorption map work between the two points is charged
		// to the fetch; it is nanoseconds against a DBMS round trip.
		t, err := s.store.FetchQuiet(coord)
		if s.cfg.Obs != nil {
			s.cfg.Obs.ObserveBackendFetch(s.cfg.clock().Sub(now))
		}

		s.mu.Lock()
		delete(s.inflight, coord)
		// Late arrivals may have piggybacked while we fetched; deliver to
		// the final waiter set.
		waiters := fl.waiters
		if err != nil {
			s.stats.Errors += len(waiters)
			s.idle.Broadcast()
			s.mu.Unlock()
			continue
		}
		s.stats.Completed += len(waiters)
		s.delivering++
		s.mu.Unlock()
		// Deliver off the worker: a Deliver callback may block on a busy
		// engine's lock, and stalling the shared pool on one session would
		// be cross-session head-of-line blocking.
		go func() {
			for _, w := range waiters {
				if w.req.Deliver != nil {
					w.req.Deliver(t)
				}
			}
			// Push dispatch runs after the cache deliveries (the stream
			// frame must never beat its own cache insert) and before
			// delivering is released, so Drain returning guarantees every
			// completed fetch's frame has been enqueued.
			pushed := 0
			if sink := s.cfg.Push; sink != nil {
				for _, w := range waiters {
					if sink.Push(w.session, w.req.Model, coord, w.req.Score, t) {
						pushed++
					}
				}
			}
			s.mu.Lock()
			s.stats.Pushed += pushed
			s.delivering--
			s.idle.Broadcast()
			s.mu.Unlock()
		}()
	}
}

// accountLatencyLocked records how long e sat queued. The queue-wait
// histogram rides the same already-computed timestamp, so observability
// adds no clock read here.
func (s *Shard) accountLatencyLocked(e *entry, now time.Time) {
	wait := now.Sub(e.enqueued)
	s.queueLatency += wait
	s.measured++
	s.cfg.Obs.ObserveQueueWait(wait)
}
