package prefetch

import (
	"container/heap"
	"math"
	"sort"
	"time"
)

// positionBase is the default per-position diminishing-returns factor: the
// entry ranked r within its session's batch keeps positionBase^r of its
// score. The front-runner of a short batch therefore outranks the
// speculative tail of a long one at equal model confidence (Khameleon's
// insight that a prefetch plan's later items are progressively less likely
// to be consumed before the user moves again). Deployments with utility
// learning replace this constant with the curve a FeedbackCollector fits
// from observed cache outcomes (Config.Utility).
const positionBase = 0.85

// positionFactor returns the position-decay factor the scheduler applies
// at batch rank pos: the learned curve when a FeedbackCollector is
// configured, positionBase^pos otherwise.
func (c Config) positionFactor(pos int) float64 {
	if pos <= 0 {
		return 1
	}
	if c.Utility != nil {
		return c.Utility.Factor(pos)
	}
	return math.Pow(positionBase, float64(pos))
}

// pushDelay returns session's estimated per-frame drain time when push
// delivery is configured, 0 otherwise. The bandwidth-aware admission term
// charges a queued entry ranked r an extra (r+1)×pushDelay of decay age —
// the time the session's connection needs to deliver it and everything
// ahead of it — so a slow stream's speculative tail loses admission fights
// it would have won on model confidence alone. (Like wall-clock decay, the
// term is active only with a nonzero DecayHalfLife.)
func (c Config) pushDelay(session string) time.Duration {
	if c.Push == nil {
		return 0
	}
	return c.Push.DrainDelay(session)
}

// decayedUtilityFactor is the admission-control currency: score discounted
// exponentially by queue age (halving every halfLife) and by the entry's
// position factor (the static base^pos or the learned curve's value at its
// rank). Scores may be negative (the SB recommender ranks by negated
// distance), so the discount always pushes utility downward: positive
// scores shrink toward zero, negative scores grow more negative.
func decayedUtilityFactor(score float64, age, halfLife time.Duration, posFactor float64) float64 {
	f := posFactor
	if halfLife > 0 && age > 0 {
		f *= math.Exp2(-float64(age) / float64(halfLife))
	}
	if score < 0 {
		return score / f
	}
	return score * f
}

// shedCand pairs a live queued entry with its utility, frozen at the moment
// the shed queue was built (one Submit holds the scheduler lock throughout,
// so relative order cannot drift mid-batch).
type shedCand struct {
	e    *entry
	util float64
}

// shedHeap is a min-heap over utility: the root is the entry global
// admission control evicts first. Ties shed the oldest entry (then the
// earliest submitted) so churn is deterministic.
type shedHeap []shedCand

func (h shedHeap) Len() int { return len(h) }
func (h shedHeap) Less(i, j int) bool {
	if h[i].util != h[j].util {
		return h[i].util < h[j].util
	}
	if !h[i].e.enqueued.Equal(h[j].e.enqueued) {
		return h[i].e.enqueued.Before(h[j].e.enqueued)
	}
	return h[i].e.seq < h[j].e.seq
}
func (h shedHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *shedHeap) Push(x any)   { *h = append(*h, x.(shedCand)) }
func (h *shedHeap) Pop() any {
	old := *h
	n := len(old)
	c := old[n-1]
	old[n-1] = shedCand{}
	*h = old[:n-1]
	return c
}

// buildShedHeapLocked snapshots every live queued entry with its decayed
// utility at now. Within each session, entries are ranked by score (the
// dispatch order) to assign the position-decay exponent.
func (s *Shard) buildShedHeapLocked(now time.Time) *shedHeap {
	h := make(shedHeap, 0, s.stats.Pending)
	for _, sq := range s.sessions {
		live := make([]*entry, 0, sq.queued)
		for _, e := range sq.pending {
			if e.state == stateQueued {
				live = append(live, e)
			}
		}
		sort.Slice(live, func(a, b int) bool {
			if live[a].req.Score != live[b].req.Score {
				return live[a].req.Score > live[b].req.Score
			}
			return live[a].seq < live[b].seq
		})
		// With push delivery on, incumbents age by their session's drain
		// time too — rank pos waits behind pos frames plus its own.
		delay := s.cfg.pushDelay(sq.id)
		for pos, e := range live {
			h = append(h, shedCand{
				e:    e,
				util: decayedUtilityFactor(e.req.Score, now.Sub(e.enqueued)+time.Duration(pos+1)*delay, s.cfg.DecayHalfLife, s.cfg.positionFactor(pos)),
			})
		}
	}
	heap.Init(&h)
	return &h
}

// shedLowestBelowLocked evicts the lowest-utility queued entry if its
// utility is strictly below u, reporting whether a slot was freed. Keeping
// the incumbent on ties avoids churn when nothing has actually decayed.
func (s *Shard) shedLowestBelowLocked(h *shedHeap, u float64) bool {
	for h.Len() > 0 {
		if (*h)[0].e.state != stateQueued { // already popped or superseded
			heap.Pop(h)
			continue
		}
		if (*h)[0].util >= u {
			return false
		}
		victim := heap.Pop(h).(shedCand).e
		victim.state = stateDone
		s.detachLocked(victim)
		s.addQueuedLocked(s.sessions[victim.session], -1)
		s.stats.Shed++
		s.stats.Pending--
		return true
	}
	return false
}
