package prefetch

// This file is the scheduler's backpressure: a Config.AdaptiveK shard trims
// the batch of a session that crowds its queue. The signal is fair-share:
// the shard's queue saturation scaled by how far a session sits ABOVE its
// fair share 1/N of the pending queue, so the flooding session's batch
// shrinks first while sessions at or under their share keep whole batches
// (they are not the reason the queue is full).

func (s *Shard) pressureLocked() float64 {
	return saturation(s.stats.Pending, s.cfg.GlobalQueue)
}

// saturation is pending over budget clamped to [0, 1]; 0 without a budget.
func saturation(pending, budget int) float64 {
	if budget <= 0 {
		return 0
	}
	p := float64(pending) / float64(budget)
	if p > 1 {
		p = 1
	}
	return p
}

// sessionPressureLocked is backpressure scoped to one session: the shard's
// saturation scaled by how far the session's share of the pending queue
// exceeds its fair share 1/N (N = sessions with queued work). A session at
// or under fair share reads 0 no matter how hard others flood, and the
// signal ramps linearly to the full saturation as one session approaches
// owning the whole queue. A lone occupant is by definition the flooder and
// reads the saturation unscaled.
func (s *Shard) sessionPressureLocked(session string) float64 {
	p := s.pressureLocked()
	if p == 0 || s.stats.Pending <= 0 {
		return 0
	}
	sq := s.sessions[session]
	if sq == nil || sq.queued == 0 {
		return 0 // nothing queued: this session is not crowding anyone
	}
	if s.active <= 1 {
		return p // sole occupant: fair share is the whole queue
	}
	share := float64(sq.queued) / float64(s.stats.Pending)
	fair := 1 / float64(s.active)
	over := (share - fair) / (1 - fair)
	if over <= 0 {
		return 0
	}
	if over > 1 {
		over = 1
	}
	return p * over
}

// adaptiveBudget maps backpressure to how many of a batch's n entries an
// AdaptiveK shard admits: all n at zero pressure, linearly down to a single
// entry at saturation. One entry is always kept — the top prediction stays
// worth submitting even on a saturated queue, since it may coalesce with
// another session's fetch.
func adaptiveBudget(n int, pressure float64) int {
	if pressure <= 0 || n <= 1 {
		return n
	}
	if pressure > 1 {
		pressure = 1
	}
	eff := n - int(pressure*float64(n-1)+0.5)
	if eff < 1 {
		eff = 1
	}
	return eff
}
