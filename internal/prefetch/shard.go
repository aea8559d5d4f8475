package prefetch

import (
	"cmp"
	"container/heap"
	"slices"
	"sync"
	"time"

	"forecache/internal/backend"
	"forecache/internal/tile"
)

// entry states.
const (
	stateQueued = iota
	stateDone   // cancelled, shed, or taken onto a flight
)

// entry is one queued Request plus its scheduling bookkeeping.
type entry struct {
	req      Request
	session  *Session
	seq      uint64 // tiebreak: earlier submissions first at equal score
	enqueued time.Time
	state    int
	prev     *entry // neighbours in req.Coord's list of queued entries,
	next     *entry // newest first from Shard.byCoord; nil once unqueued
}

// Session is one session's handle on its home shard (Scheduler.Open): its
// push sink and its latest batch in dispatch order (score descending, then
// submission order). Submit clears the batch and appends the next one
// already sorted, and steps take entries from next on; entries
// cancelled, coalesced or shed in place are skipped lazily. Safe for
// concurrent use.
type Session struct {
	id    string
	shard *Shard
	sink  PushSink // nil: pull only

	// The rest is guarded by shard.mu.
	pending []*entry
	next    int  // index of the first entry not yet dispatched
	queued  int  // live (stateQueued) entries, for the budget
	inRing  bool // whether the session is in the round-robin ring
	closed  bool
}

// flight is one in-flight DBMS fetch and the entries waiting on it.
type flight struct {
	first   [1]*entry // waiters' first backing array: one waiter allocates nothing
	waiters []*entry
}

// Shard is one independent slice of the Scheduler: its own mutex,
// per-session queues, worker pool and pressure signal, serving the sessions
// the hash router routes to it. A Session handle is bound to its home
// Shard once (Scheduler.Open), so the request path submits straight to the
// queue that owns the session. Every prefetch fetch runs in step, called
// by the shard's workers or, with none, by Scheduler.Run. Safe for
// concurrent use by any number of sessions.
type Shard struct {
	store backend.Store
	cfg   Config

	mu       sync.Mutex
	work     *sync.Cond            // signaled when queued work or shutdown arrives
	idle     *sync.Cond            // signaled when queued+inflight may have drained
	sessions map[*Session]struct{} // handles with state: since a Submit, until Cancel or Close
	byID     map[string]*Session   // each id's latest handle, for Scheduler.Submit
	rr       []*Session            // round-robin ring of sessions with pending work
	rrPos    int
	byCoord  map[tile.Coord]*entry  // the newest queued entry per coordinate, heading its list
	inflight map[tile.Coord]*flight // until the fetching step has served every waiter
	spare    *flight                // a served flight, for the next step to reuse
	seq      uint64
	closed   bool

	stats        Stats
	queueLatency time.Duration // summed over issued/coalesced entries
	measured     int

	wg sync.WaitGroup
}

// newShard starts one shard fetching from store with cfg.Workers workers,
// maybe none; cfg already carries defaults and this shard's budgets.
func newShard(store backend.Store, cfg Config) *Shard {
	s := &Shard{
		store:    store,
		cfg:      cfg,
		sessions: make(map[*Session]struct{}),
		byID:     make(map[string]*Session),
		byCoord:  make(map[tile.Coord]*entry),
		inflight: make(map[tile.Coord]*flight),
	}
	s.work = sync.NewCond(&s.mu)
	s.idle = sync.NewCond(&s.mu)
	for range s.cfg.Workers { // none when Workers <= 0
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Submit replaces the session's pending batch with reqs: entries still
// queued from earlier batches are cancelled (their predictions are stale),
// then reqs are enqueued in score order subject to the per-session budget
// and the global one. When the global budget is saturated, each admission
// sheds the lowest-utility queued entry across all sessions (utility =
// score decayed by queue age and batch position), or rejects the newcomer
// if everything queued outranks it, so a session flooding the queue loses
// its own low-utility tail first.
// Returns the number of entries accepted.
// Fetches already in flight are not interrupted. Safe to call concurrently;
// a no-op that returns 0 after Close (the handle's or the scheduler's).
func (sq *Session) Submit(reqs []Request) int {
	s := sq.shard
	now := s.cfg.clock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || sq.closed {
		return 0
	}
	s.sessions[sq] = struct{}{}
	s.cancelQueuedLocked(sq)
	// Process the batch in descending score order: the queue was just
	// cleared, so when the budget truncates, it is exactly the batch's
	// lowest-scored entries that drop (the documented contract), whatever
	// order the caller built the slice in. The batch's entries share one
	// backing array; those dropped or piggybacked are never linked.
	batch := make([]entry, len(reqs))
	for i := range reqs {
		batch[i] = entry{req: reqs[i], session: sq}
	}
	slices.SortStableFunc(batch, func(a, b entry) int { return cmp.Compare(b.req.Score, a.req.Score) })
	var shed *shedHeap // built lazily on the first saturated admission
	// The bandwidth-aware admission term: with push delivery on, queued
	// entries age by the connection's measured per-frame drain time as well
	// as by wall clock, so tiles a slow stream cannot deliver before they
	// decay stale lose admission fights. 0 (pull mode, no stream, or no
	// measurement yet) prices exactly like the classic pull path. Only a
	// saturated admission prices anything, so it is read with the shed heap.
	var pushDelay time.Duration
	accepted, enqueued := 0, 0
	for i := range batch {
		e := &batch[i]
		// A fetch for this tile is already in flight (another session's,
		// typically): piggyback on it instead of queueing a duplicate.
		if fl, ok := s.inflight[e.req.Coord]; ok {
			fl.waiters = append(fl.waiters, e)
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
				pushDelay = sq.drainDelay()
			}
			// The newcomer's admission utility is priced at the position it
			// will occupy: sq.queued entries sit ahead of it, so its
			// 0-indexed rank is sq.queued. (After the append below the
			// same rank reads sq.queued-1 — the counter has incremented by
			// then; the two sites price the same position.) With push
			// delivery on, the rank also charges drain time: the connection
			// must deliver rank+1 frames before this one reaches the client.
			u := decayedUtilityFactor(e.req.Score, time.Duration(sq.queued+1)*pushDelay, s.cfg.DecayHalfLife, s.cfg.positionFactor(sq.queued))
			if !s.shedLowestBelowLocked(shed, u) {
				s.stats.Dropped++
				continue
			}
		}
		s.seq++
		e.seq, e.enqueued = s.seq, now
		sq.pending = append(sq.pending, e)
		sq.queued++
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
		if head := s.byCoord[e.req.Coord]; head != nil {
			head.prev, e.next = e, head
		}
		s.byCoord[e.req.Coord] = e
		accepted++
		enqueued++
	}
	s.stats.Queued += accepted
	if enqueued > 0 {
		if !sq.inRing {
			sq.inRing = true
			s.rr = append(s.rr, sq)
		}
		s.work.Broadcast()
	}
	return accepted
}

// Cancel drops the session's queued entries and its scheduler state until
// its next Submit (an engine Reset). In-flight fetches complete normally.
func (sq *Session) Cancel() { sq.end(false) }

// Close ends the session: Cancel, and every later Submit is a no-op that
// returns 0. Only this handle is touched, never a newer one with the same
// id. Idempotent.
func (sq *Session) Close() { sq.end(true) }

// end cancels sq's queued entries and drops its state; a step drops it
// from the ring when it next finds it empty.
func (sq *Session) end(closing bool) {
	s := sq.shard
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cancelQueuedLocked(sq)
	delete(s.sessions, sq)
	if closing {
		sq.closed = true
		if s.byID[sq.id] == sq {
			delete(s.byID, sq.id)
		}
	}
}

// drain blocks until no entries are queued and no flights are left: a
// flight ends only after its step has served every waiter, so the
// deliveries and push frames of every completed fetch have run.
func (s *Shard) drain() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.stats.Pending > 0 || len(s.inflight) > 0 {
		s.idle.Wait()
	}
}

// close stops the workers after cancelling all queued entries; each
// worker finishes its flight, deliveries included, before it exits.
// Idempotent.
func (s *Shard) close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	for sq := range s.sessions {
		s.cancelQueuedLocked(sq)
	}
	s.work.Broadcast()
	s.idle.Broadcast() // cancelling zeroed Pending: wake concurrent Drains
	s.mu.Unlock()
	s.wg.Wait()
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
	st.Pressure = saturation(s.stats.Pending, s.cfg.GlobalQueue)
	st.QueueDepths = make(map[string]int, len(s.sessions))
	for sq := range s.sessions {
		st.QueueDepths[sq.id] += sq.queued // two handles share an id only while the older closes
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

// saturation is pending over budget clamped to [0, 1]; 0 without a budget.
func saturation(pending, budget int) float64 {
	if budget <= 0 {
		return 0
	}
	return min(float64(pending)/float64(budget), 1)
}

// cancelQueuedLocked marks all of sq's queued entries cancelled. It wakes
// Drain waiters: cancellation may have emptied the queue for good (e.g. a
// Submit whose whole batch is dropped or piggybacked enqueues nothing).
func (s *Shard) cancelQueuedLocked(sq *Session) {
	cancelled := false
	for _, e := range sq.pending[sq.next:] {
		if e.state == stateQueued {
			s.unqueueLocked(e)
			s.stats.Cancelled++
			cancelled = true
		}
	}
	sq.pending, sq.next, sq.queued = sq.pending[:0], 0, 0
	if cancelled {
		s.idle.Broadcast()
	}
}

// unqueueLocked takes queued e out of the queue counts and the
// coordinate index; its session's pending slice skips it lazily.
func (s *Shard) unqueueLocked(e *entry) {
	e.state = stateDone
	e.session.queued--
	s.stats.Pending--
	switch {
	case e.prev != nil:
		e.prev.next = e.next
	case e.next != nil:
		s.byCoord[e.req.Coord] = e.next
	default:
		delete(s.byCoord, e.req.Coord)
	}
	if e.next != nil {
		e.next.prev = e.prev
	}
	e.prev, e.next = nil, nil
}

// popNextLocked picks the next entry to fetch, still queued: sessions with
// pending work are visited round-robin, and within a session the
// highest-scored entry wins. Returns nil when nothing is queued.
func (s *Shard) popNextLocked() *entry {
	for len(s.rr) > 0 {
		if s.rrPos >= len(s.rr) {
			s.rrPos = 0
		}
		sq := s.rr[s.rrPos]
		var e *entry
		for sq.next < len(sq.pending) {
			top := sq.pending[sq.next]
			sq.pending[sq.next] = nil
			sq.next++
			if top.state == stateQueued { // the rest were cancelled, coalesced or shed
				e = top
				break
			}
		}
		if e == nil {
			// Session has no live work: drop it from the rotation.
			sq.inRing = false
			s.rr = append(s.rr[:s.rrPos], s.rr[s.rrPos+1:]...)
			continue
		}
		s.rrPos++
		return e
	}
	return nil
}

// worker is one pool goroutine: a loop over step that waits for work.
func (s *Shard) worker() {
	defer s.wg.Done()
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		for s.step() {
		}
		if s.closed {
			return
		}
		s.work.Wait()
	}
}

// step pops the next entry in the shard's order, absorbs its queued
// duplicates from every session, fetches the tile and delivers it to every
// waiter, late joiners included, then wakes Drain; it reports whether
// there was an entry. No entry is queued for a tile in flight: Submit
// joins the flight instead. The caller holds s.mu, which step releases
// around the fetch and the deliveries.
func (s *Shard) step() bool {
	e := s.popNextLocked()
	if e == nil {
		return false
	}
	now := s.cfg.clock()
	coord := e.req.Coord
	fl := s.spare
	s.spare = nil
	if fl == nil {
		fl = &flight{}
	}
	fl.waiters = fl.first[:0]
	s.inflight[coord] = fl
	// Take e and its queued duplicates from every session onto the
	// flight: one DBMS round trip serves them all. The queue-wait
	// histogram rides the fetch timer's timestamp.
	for w := s.byCoord[coord]; w != nil; w = s.byCoord[coord] {
		s.unqueueLocked(w)
		fl.waiters = append(fl.waiters, w)
		wait := now.Sub(w.enqueued)
		s.queueLatency += wait
		s.measured++
		s.cfg.Obs.ObserveQueueWait(wait)
	}
	s.stats.Coalesced += len(fl.waiters) - 1
	s.mu.Unlock()

	// The fetch timer reuses the queue-wait timestamp taken above, so
	// instrumentation costs one clock read per fetch, not two. The
	// duplicate absorption between the two points is charged to the
	// fetch; it is nanoseconds against a DBMS round trip.
	t, err := s.store.FetchQuiet(coord)
	if s.cfg.Obs != nil {
		s.cfg.Obs.ObserveBackendFetch(s.cfg.clock().Sub(now))
	}

	s.mu.Lock()
	// Serve every waiter, then those that piggybacked meanwhile: the
	// flight stays in inflight until nobody is left waiting, so a late
	// request for this tile joins it instead of fetching it again, and
	// Drain waits for the deliveries.
	for err == nil && len(fl.waiters) > 0 {
		waiters := fl.waiters
		fl.waiters = nil
		s.stats.Completed += len(waiters)
		s.mu.Unlock()
		// Cache deliveries first, so a stream frame never beats its own
		// cache insert. Neither blocks on a client: a Deliver takes the
		// cache's leaf lock, and a push enqueues the tile unencoded onto a
		// bounded buffer or refuses it.
		for _, w := range waiters {
			if w.req.Deliver != nil {
				w.req.Deliver(t)
			}
		}
		for _, w := range waiters {
			if sink := w.session.sink; sink != nil {
				sink.Push(w.req.Model, coord, w.req.Score, t)
			}
		}
		s.mu.Lock()
	}
	if err != nil {
		s.stats.Errors += len(fl.waiters)
	}
	delete(s.inflight, coord)
	*fl, s.spare = flight{}, fl
	s.idle.Broadcast()
	return true
}
