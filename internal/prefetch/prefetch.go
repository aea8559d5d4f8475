// Package prefetch is the middleware's asynchronous prefetch pipeline: a
// server-wide scheduler that decouples the prediction engine (which decides
// *which* tiles to prefetch) from the DBMS fetches that load them. Engines
// submit ranked candidate batches and return immediately; a bounded worker
// pool issues the fetches off the response path, in priority order, with
// per-session fairness.
//
// The design follows Khameleon's split of prediction from a utility-ordered,
// budget-bound fetch scheduler, and Kyrix's middleware-throughput argument
// for multi-user tile serving:
//
//   - each session keeps a priority queue of pending candidates ordered by
//     model confidence, and sessions with pending work are drained
//     round-robin so one aggressive session cannot starve the others;
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
//     fresh predictions;
//   - Pressure reports global queue saturation in [0, 1]; engines use it as
//     a backpressure signal to shrink their prefetch budget K under load
//     (core.Config.AdaptiveK) and restore it when the queue drains;
//   - SessionPressure is the fair-share variant: global pressure scaled by
//     how far one session's queue share exceeds its fair share 1/N, so the
//     flooding session's budget collapses first while light sessions keep
//     prefetching at full K (core.Config.FairShare);
//   - a FeedbackCollector (Config.Utility) closes the loop from cache
//     outcomes back into admission control: it fits the position-utility
//     curve online from which prefetched tiles clients actually consumed,
//     replacing the static positionBase guess once warmed up.
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
	// is attribution carried through to push frames (Config.Push) and may
	// be empty.
	Model string
	// Deliver is invoked with the fetched tile off the response path
	// (typically it inserts into the session's cache region). It must be
	// safe to call from a scheduler worker goroutine. May be nil.
	Deliver func(*tile.Tile)
}

// PushSink is the push-delivery hook the scheduler drives when a
// deployment runs with streaming on (satisfied by *push.Registry; the
// scheduler deliberately depends on this interface, not the push package).
// Both methods must be safe for concurrent use and must never block on a
// slow client, and neither may call back into the scheduler.
type PushSink interface {
	// Push offers one completed fetch to session's stream, reporting
	// whether a frame was enqueued (false: no stream attached or the
	// stream's buffer is full — the tile still lands in the cache either
	// way, so refusal costs nothing but the push).
	Push(session, model string, c tile.Coord, score float64, t *tile.Tile) bool
	// DrainDelay estimates how long session's connection takes to deliver
	// one more tile frame (0 when unknown or no stream is attached).
	// Admission control charges queued entries this much extra age per
	// rank: a tile the connection cannot drain before it decays stale is
	// not worth fetching ahead of fresher work.
	DrainDelay(session string) time.Duration
}

// Config sizes a scheduler.
type Config struct {
	// Shards is how many independent queue shards the scheduler runs behind
	// its session hash router; Workers and GlobalQueue are
	// deployment-wide and ceil-divided across them. Default 1.
	Shards int
	// Workers is the bounded worker pool size: the maximum number of
	// concurrent DBMS fetches (the in-flight budget). Default 4.
	Workers int
	// QueuePerSession caps how many entries one session may have queued;
	// submissions beyond the cap drop the lowest-scored entries. Default 64.
	QueuePerSession int
	// GlobalQueue caps the total entries queued across all sessions. When a
	// submission would exceed it, admission control sheds the queued entry
	// with the lowest decayed utility — whichever session owns it — to make
	// room, or rejects the incoming entry if everything queued outranks it.
	// 0 means unlimited (and Pressure always reports 0).
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
	// Push, when set, turns on push delivery: every completed fetch is
	// offered to the waiter's session stream after the cache delivery, and
	// admission control discounts queued entries by the session's measured
	// drain rate (DrainDelay × rank of extra age). Nil (the default) is
	// the pure pull path, bit-identical to a scheduler without this field.
	Push PushSink

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
	if c.Workers <= 0 {
		c.Workers = 4
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
	// session eviction) before their fetch was issued.
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
	// Pushed counts completed entries whose tile was also framed onto the
	// session's push stream (Config.Push; 0 on pull-only deployments).
	Pushed int
	// Errors counts entries whose fetch failed.
	Errors int
	// Pending is the number of entries queued right now.
	Pending int
	// PeakPending is the high-water mark of Pending: with a global budget
	// configured it never exceeds Config.GlobalQueue.
	PeakPending int
	// Inflight is the number of DBMS fetches running right now.
	Inflight int
	// Sessions is the number of sessions with scheduler state.
	Sessions int
	// Pressure is the current global queue saturation in [0, 1] (always 0
	// without a global budget); see Scheduler.Pressure.
	Pressure float64
	// QueueDepths maps each tracked session to its live queued entry count.
	QueueDepths map[string]int
	// SessionPressures maps each tracked session to its fair-share
	// backpressure signal (Scheduler.SessionPressure): 0 for sessions at
	// or under their fair share of the queue, ramping to Pressure for a
	// session that owns it.
	SessionPressures map[string]float64
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
