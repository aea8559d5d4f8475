// Package prefetch is the middleware's asynchronous prefetch pipeline: a
// server-wide scheduler that decouples the prediction engine (which decides
// *which* tiles to prefetch) from the DBMS fetches that load them. Engines
// submit ranked candidate batches and return immediately; a bounded worker
// pool issues the fetches off the response path, in priority order, with
// per-session fairness. A scheduler with no workers is run by its caller
// (Scheduler.Run): the same dispatch, done before the caller goes on.
//
// The design follows Khameleon's split of prediction from a utility-ordered,
// budget-bound fetch scheduler, and Kyrix's middleware-throughput argument
// for multi-user tile serving:
//
//   - each session keeps its latest batch, in dispatch order (model
//     confidence descending, then submission order), and sessions with
//     pending work are drained round-robin so one aggressive session
//     cannot starve the others;
//   - the worker pool bounds concurrent DBMS fetches (the in-flight budget);
//   - duplicate requests coalesce: when N sessions want the same tile, one
//     DBMS fetch is issued and its result is delivered to all N waiters
//     (single-flight), both for queued duplicates and for requests arriving
//     while a fetch is already in flight;
//   - a session's newer batch supersedes its older one: queued entries from
//     previous batches are cancelled before they reach the DBMS, since the
//     predictions they came from are stale.
//
// On top of the per-session queues sits adaptive, utility-aware admission
// control (Khameleon-style diminishing returns):
//
//   - a queued entry's effective utility is its model confidence discounted
//     exponentially by how long it has sat in the queue (DecayHalfLife) and
//     by its rank within its session's batch — a prediction made for a view
//     the user has already left, or the tail of a long speculative batch, is
//     worth less than a fresh front-runner;
//   - GlobalQueue caps the total entries queued across *all* sessions; when
//     a submission would exceed it, the lowest-utility entry anywhere is
//     shed to admit a higher-utility newcomer (or the newcomer is rejected
//     if everything queued outranks it), so stale backlog cannot crowd out
//     fresh predictions. This is the one admission rule under load: a
//     session flooding the queue ranks its own tail low (position decay),
//     so it loses its tail first while light sessions keep whole batches,
//     and the engines that submit never shrink a batch themselves;
//   - a FeedbackCollector (Config.Utility) closes the loop from cache
//     outcomes back into admission control: it fits the position-utility
//     curve online from which prefetched tiles clients actually consumed,
//     replacing the static positionBase guess once warmed up.
//
// Each session reaches the scheduler through its own handle (Scheduler.Open
// → *Session): Submit, Cancel and Close act on that session's queue and
// push sink alone, and a closed handle refuses later submits.
//
// The scheduler is shared by every session of one deployment and composes
// with backend.SharedPool: the pool deduplicates tiles across time (a tile
// fetched yesterday is still pooled), the scheduler deduplicates fetches in
// flight right now.
package prefetch

import (
	"time"

	"forecache/internal/obs"
	"forecache/internal/tile"
)

// Request is one candidate tile a session asks the scheduler to prefetch.
type Request struct {
	// Coord addresses the wanted tile.
	Coord tile.Coord
	// Score is the recommender's confidence; higher scores are fetched
	// first within the session.
	Score float64
	// Model names the recommender whose prediction asked for the tile; it
	// is attribution carried through to push frames (PushSink) and may be
	// empty.
	Model string
	// Deliver is invoked with the fetched tile on the goroutine that ran
	// the fetch, a scheduler worker or Run's caller (typically it inserts
	// into the session's cache region). May be nil.
	Deliver func(*tile.Tile)
}

// PushSink is one session's push-delivery hook, handed to Scheduler.Open
// when a deployment runs with streaming on (satisfied by *push.Session;
// the scheduler deliberately depends on this interface, not the push
// package). Both methods must be safe for concurrent use and must never
// block on a slow client, and neither may call back into the scheduler.
// Push runs on the worker that fetched the tile: it hands the tile on
// unencoded, and the stream handler encodes it.
type PushSink interface {
	// Push offers one completed fetch to the session's stream, reporting
	// whether a frame was enqueued (false: no stream attached or the
	// stream's buffer is full). The scheduler ignores the answer: the tile
	// lands in the cache either way, and the registry counts pushes.
	Push(model string, c tile.Coord, score float64, t *tile.Tile) bool
	// DrainDelay estimates how long the session's connection takes to
	// deliver one more tile frame (0 when unknown or no stream is
	// attached). Admission control charges queued entries this much extra
	// age per rank: a tile the connection cannot drain before it decays
	// stale is not worth fetching ahead of fresher work.
	DrainDelay() time.Duration
}

// Config sizes a scheduler.
type Config struct {
	// Shards is how many independent queue shards the scheduler runs behind
	// its session hash router; Workers and GlobalQueue are
	// deployment-wide and ceil-divided across them. Default 1.
	Shards int
	// Workers is the bounded worker pool size: the maximum number of
	// concurrent DBMS fetches (the in-flight budget). 0 starts none, and
	// the scheduler is run by its caller (Scheduler.Run).
	Workers int
	// QueuePerSession caps how many entries one session may have queued;
	// submissions beyond the cap drop the lowest-scored entries. Default 64.
	QueuePerSession int
	// GlobalQueue caps the total entries queued across all sessions. When a
	// submission would exceed it, admission control sheds the queued entry
	// with the lowest decayed utility — whichever session owns it — to make
	// room, or rejects the incoming entry if everything queued outranks it.
	// 0 means unlimited (and Stats.Pressure always reports 0).
	GlobalQueue int
	// DecayHalfLife is the queue age at which an entry's utility halves.
	// Stale entries therefore lose admission-control fights against fresh
	// ones of equal model confidence. 0 disables age decay.
	DecayHalfLife time.Duration
	// Utility, when set, replaces the static position-decay base with the
	// collector's learned curve: admission control discounts a queued
	// entry ranked at position p by the observed consumption rate of
	// position p relative to the front-runner. The same collector is fed
	// cache outcomes by every session engine (core.Config.Feedback). Nil
	// keeps the static curve.
	Utility *FeedbackCollector
	// Obs, when set, receives per-stage latency observations: how long
	// each entry waited queued before its fetch was issued (queue wait)
	// and how long each DBMS fetch took (backend fetch). Nil (the
	// default) costs the hot path nothing beyond a nil check.
	Obs *obs.Pipeline

	// clock overrides time.Now; scheduler tests inject a deterministic
	// clock so decay is testable without sleeps.
	clock func() time.Time
}

// withDefaults fills the unset sizing fields with the defaults their
// field comments document.
func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.QueuePerSession <= 0 {
		c.QueuePerSession = 64
	}
	if c.clock == nil {
		c.clock = time.Now
	}
	return c
}

// Stats snapshots scheduler activity since construction.
type Stats struct {
	// Queued counts entries accepted into the queue.
	Queued int
	// Dropped counts entries rejected at submission: over the per-session
	// queue budget, or refused by global admission control because every
	// queued entry had higher utility.
	Dropped int
	// Shed counts queued entries evicted by global admission control to
	// make room for higher-utility submissions.
	Shed int
	// Cancelled counts queued entries superseded by a newer batch (or a
	// session's Cancel or Close) before their fetch was issued.
	Cancelled int
	// Coalesced counts entries that shared another entry's DBMS fetch
	// instead of issuing their own (single-flight).
	Coalesced int
	// CrossShardCoalesced counts worker fetches that joined another
	// shard's in-flight DBMS fetch through the deployment-wide
	// single-flight store (0 with one shard, whose own flight table
	// already coalesces everything it sees).
	CrossShardCoalesced int
	// Shards is how many independent scheduler shards the counters were
	// aggregated over (1 for a single Shard's own snapshot).
	Shards int
	// Completed counts entries whose tile was fetched and delivered.
	Completed int
	// Errors counts entries whose fetch failed.
	Errors int
	// Pending is the number of entries queued right now.
	Pending int
	// PeakPending is the high-water mark of Pending: with a global budget
	// configured it never exceeds Config.GlobalQueue.
	PeakPending int
	// Inflight is the number of DBMS fetches running right now. A flight
	// counts until its step has handed the tile to every waiter.
	Inflight int
	// Sessions is the number of session handles with scheduler state.
	Sessions int
	// Pressure is the current global queue saturation in [0, 1]: pending
	// entries over GlobalQueue (always 0 without a global budget).
	Pressure float64
	// QueueDepths maps each tracked session to its live queued entry count.
	QueueDepths map[string]int
	// AvgQueueLatency is the mean time entries spent queued before their
	// fetch was issued (or joined).
	AvgQueueLatency time.Duration
	// UtilityCurve is the effective position-decay curve when a
	// FeedbackCollector is configured (index = batch position): learned
	// once warmed up, the static base^pos before. Nil without learning.
	UtilityCurve []float64
	// UtilityObservations counts the cache outcomes the curve was fit
	// from (0 without learning).
	UtilityObservations int
}
