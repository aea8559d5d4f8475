package prefetch

// This file is the scheduler's per-session backpressure signal. Global
// Pressure (below) reports how full the shared queue is, but treats every
// session alike: when one session floods the queue, AdaptiveK engines all
// shrink together and the flooder's victims pay for its burst. The
// fair-share signal scales the global pressure by how far a session sits
// ABOVE its fair share 1/N of the pending queue, so the flooding session's
// budget collapses first while sessions at or under their share keep
// prefetching at full K (they are not the reason the queue is full).

// Pressure reports the shard's queue saturation in [0, 1]: how full its
// slice of the GlobalQueue budget is right now. It is the scheduler→engine
// backpressure signal: engines built with core.Config.AdaptiveK shrink their
// prefetch budget K as pressure rises and restore it when the queue
// drains. Without a global budget the signal is always 0.
func (s *Shard) Pressure() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pressureLocked()
}

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

// SessionPressure reports backpressure scoped to one session: the global
// pressure scaled by how far the session's share of the pending queue
// exceeds its fair share 1/N (N = sessions with queued work). A session at
// or under fair share reads 0 — it keeps its full prefetch budget no
// matter how hard others flood — and the signal ramps linearly to the full
// global pressure as one session approaches owning the whole queue. A lone
// occupant is by definition the flooder and reads the global pressure
// unscaled. Engines opt in with core.Config.FairShare.
func (s *Shard) SessionPressure(session string) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sessionPressureLocked(session, s.active)
}

func (s *Shard) sessionPressureLocked(session string, active int) float64 {
	p := s.pressureLocked()
	if p == 0 || s.stats.Pending <= 0 {
		return 0
	}
	sq := s.sessions[session]
	if sq == nil || sq.queued == 0 {
		return 0 // nothing queued: this session is not crowding anyone
	}
	if active <= 1 {
		return p // sole occupant: fair share is the whole queue
	}
	share := float64(sq.queued) / float64(s.stats.Pending)
	fair := 1 / float64(active)
	over := (share - fair) / (1 - fair)
	if over <= 0 {
		return 0
	}
	if over > 1 {
		over = 1
	}
	return p * over
}
