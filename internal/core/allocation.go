package core

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"forecache/internal/trace"
)

// AllocationFeedback is the consumption signal AdaptivePolicy learns from:
// the EWMA rate at which each model's prefetches get consumed under one
// predicted analysis phase, plus how many cache outcomes that rate was fit
// from, ordered like models — one call per request, so an implementation
// shared by every session answers it in one lock hold. Implemented by
// *prefetch.FeedbackCollector, which every session engine of a deployment
// feeds via Config.Feedback.
type AllocationFeedback interface {
	AllocationRates(ph trace.Phase, models []string) (rates []float64, obs []int)
}

// AdaptiveConfig has no fields: the policy's floor, warmup and step are
// the constants below, the only values any deployment has run.
// NewAdaptivePolicy still takes one so its callers keep compiling.
type AdaptiveConfig struct{}

// AdaptivePolicy tuning.
const (
	// allocFloor is the minimum budget share any model keeps in any phase
	// once shares move (exploration: a model allocated zero slots can never
	// earn consumption evidence, so it would stay at zero forever). Clamped
	// to 1/len(models).
	allocFloor = 0.1
	// allocWarmup is the per-(phase, model) observation count below which
	// the phase keeps the base policy's static split. A phase also warms
	// when its TOTAL observations reach allocWarmup x len(models): a model
	// the prior never allots slots to (e.g. the Actions-Based model in
	// Sensemaking under the §5.4.3 table) collects no outcomes of its own,
	// and the phase-wide evidence is what breaks that chicken-and-egg.
	allocWarmup = 30
	// allocMaxStep bounds how far the fastest-moving model's share moves
	// per reallocation (hysteresis): shares drift smoothly toward the
	// observed consumption split instead of thrashing with every noisy
	// outcome. A reallocation only happens when the phase has NEW outcome
	// evidence since the last one, so share movement is proportional to
	// observed consumption, never to how often Allocations is called.
	allocMaxStep = 0.02
)

// phaseShares is one phase's allocation state.
type phaseShares struct {
	shares  map[string]float64 // current smoothed share per model, sums to 1
	moved   bool               // shares have diverged from the prior at least once
	lastObs int                // phase outcome total at the last hysteresis step
}

// AdaptivePolicy wraps a base AllocationPolicy and re-splits the prefetch
// budget k per phase in proportion to observed per-(phase, model)
// consumption rates — the closed-loop version of the paper's fixed
// allocation table (§4.4, §5.4.3), in the spirit of Khameleon's
// utility-driven budget reallocation. The base policy is the prior: until a
// (phase, model) bucket has warmed up (allocWarmup) the base split is
// returned unchanged, so a cold deployment behaves exactly like the static
// one. Once warmed, each call moves the phase's shares at most allocMaxStep
// toward the consumption-proportional target (hysteresis), every model
// keeps at least the allocFloor share (exploration), and the fractional
// shares are rounded to integer slot counts that always sum to exactly k.
//
// One AdaptivePolicy is shared by every session engine of a deployment
// (each NewEngine call is passed the same one) so the learned split
// reflects all traffic; all methods are safe for concurrent use.
type AdaptivePolicy struct {
	base   AllocationPolicy
	models []string
	fb     AllocationFeedback
	floor  float64 // allocFloor, clamped to 1/len(models)

	mu     sync.Mutex
	phases map[trace.Phase]*phaseShares
}

// NewAdaptivePolicy wraps base with feedback-driven per-phase reallocation
// over the named models (the same names base allocates to). fb may be nil,
// in which case the policy never leaves the base split.
func NewAdaptivePolicy(base AllocationPolicy, models []string, fb AllocationFeedback, _ AdaptiveConfig) (*AdaptivePolicy, error) {
	if base == nil {
		return nil, fmt.Errorf("core: adaptive policy needs a base policy")
	}
	if len(models) == 0 {
		return nil, fmt.Errorf("core: adaptive policy needs at least one model")
	}
	seen := make(map[string]bool, len(models))
	for _, m := range models {
		if seen[m] {
			return nil, fmt.Errorf("core: duplicate model %q in adaptive policy", m)
		}
		seen[m] = true
	}
	return &AdaptivePolicy{
		base:   base,
		models: append([]string(nil), models...),
		fb:     fb,
		floor:  min(allocFloor, 1/float64(len(models))),
		phases: make(map[trace.Phase]*phaseShares),
	}, nil
}

// Allocations returns the per-model slot split for phase ph and budget k.
// While the phase is still warming up this is exactly the base policy's
// split; afterwards it is the smoothed, floored, consumption-proportional
// split rounded so the returned counts sum to exactly k (models rounded to
// zero slots are omitted from the map, matching the base policies). Shares
// step toward the observed split only when the phase has new outcome
// evidence since the last step, so session churn alone never drifts the
// learned split.
func (p *AdaptivePolicy) Allocations(ph trace.Phase, k int) map[string]int {
	if k <= 0 {
		return map[string]int{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	st := p.phases[ph]
	if st == nil {
		st = &phaseShares{shares: p.priorShares(ph, k)}
		p.phases[ph] = st
	}
	if p.fb == nil {
		return p.base.Allocations(ph, k)
	}
	rates, obs := p.fb.AllocationRates(ph, p.models)
	if !warmed(obs) {
		if !st.moved {
			return p.base.Allocations(ph, k)
		}
		// The phase warmed once and its shares moved; keep serving the
		// smoothed split rather than snapping back to the prior.
		return roundShares(st.shares, p.models, k)
	}
	total := 0
	for _, o := range obs {
		total += o
	}
	if total != st.lastObs {
		p.stepLocked(st, p.targetShares(rates))
		st.lastObs = total
	}
	return roundShares(st.shares, p.models, k)
}

// warmed reports whether every bucket has allocWarmup observations — or,
// failing that, whether the phase total reaches allocWarmup x len(models)
// (the starved-model escape hatch: a model the prior gives no slots can
// never warm its own bucket, but plenty of phase-wide evidence with none
// of it earned by that model IS evidence).
func warmed(obs []int) bool {
	all, total := true, 0
	for _, o := range obs {
		if o < allocWarmup {
			all = false
		}
		total += o
	}
	return all || total >= allocWarmup*len(obs)
}

// Shares snapshots the current smoothed share per (phase, model) under one
// lock hold, so every phase's shares sum to 1 within the same snapshot even
// while reallocations race the scrape. Phases the policy has never been
// asked about are absent.
func (p *AdaptivePolicy) Shares() map[trace.Phase]map[string]float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[trace.Phase]map[string]float64, len(p.phases))
	for ph, st := range p.phases {
		shares := make(map[string]float64, len(st.shares))
		for m, s := range st.shares {
			shares[m] = s
		}
		out[ph] = shares
	}
	return out
}

// Models returns the model names the policy splits the budget across.
func (p *AdaptivePolicy) Models() []string { return append([]string(nil), p.models...) }

// priorShares converts the base policy's split at budget k into fractional
// shares (every model present, zero-allotted ones at 0).
func (p *AdaptivePolicy) priorShares(ph trace.Phase, k int) map[string]float64 {
	alloc := p.base.Allocations(ph, k)
	total := 0
	for _, n := range alloc {
		total += n
	}
	shares := make(map[string]float64, len(p.models))
	for _, m := range p.models {
		if total > 0 {
			shares[m] = float64(alloc[m]) / float64(total)
		} else {
			shares[m] = 1 / float64(len(p.models))
		}
	}
	return shares
}

// targetShares is the consumption-proportional split with the exploration
// floor applied: every model keeps the floor, the remainder is divided in
// proportion to the observed per-(phase, model) consumption rates (equally
// when nothing was consumed at all). rates is ordered like p.models.
func (p *AdaptivePolicy) targetShares(rates []float64) map[string]float64 {
	sum := 0.0
	for _, r := range rates {
		if r > 0 {
			sum += r
		}
	}
	n := float64(len(p.models))
	rest := 1 - p.floor*n
	target := make(map[string]float64, len(p.models))
	for i, m := range p.models {
		r := rates[i]
		if r < 0 {
			r = 0
		}
		if sum > 0 {
			target[m] = p.floor + rest*r/sum
		} else {
			target[m] = 1 / n
		}
	}
	return target
}

// stepLocked moves the share vector along the straight line toward target,
// scaled so the fastest-moving model moves at most allocMaxStep. Because both
// vectors sum to 1 the scaled deltas sum to 0 exactly: the shares stay
// normalized without a renormalization pass that would distort the
// slower-moving models' steps (or push a model below the floor) when more
// than two models move asymmetrically.
func (p *AdaptivePolicy) stepLocked(st *phaseShares, target map[string]float64) {
	maxAbs := 0.0
	for _, m := range p.models {
		if d := math.Abs(target[m] - st.shares[m]); d > maxAbs {
			maxAbs = d
		}
	}
	if maxAbs < 1e-12 {
		return
	}
	t := 1.0
	if maxAbs > allocMaxStep {
		t = allocMaxStep / maxAbs
	}
	for _, m := range p.models {
		st.shares[m] += t * (target[m] - st.shares[m])
	}
	st.moved = true
}

// roundShares converts fractional shares into integer slot counts summing
// to exactly k (largest-remainder rounding, ties broken by larger share
// then model name so the result is deterministic). When the budget covers
// every model, no model with a positive share is rounded down to zero: the
// exploration floor must survive integer rounding, so a starved model takes
// one slot from the largest allocation.
func roundShares(shares map[string]float64, models []string, k int) map[string]int {
	type slot struct {
		model string
		share float64
		count int
		rem   float64
	}
	slots := make([]*slot, len(models))
	assigned := 0
	for i, m := range models {
		q := shares[m] * float64(k)
		c := int(math.Floor(q + 1e-9))
		slots[i] = &slot{model: m, share: shares[m], count: c, rem: q - float64(c)}
		assigned += c
	}
	sort.Slice(slots, func(i, j int) bool {
		if slots[i].rem != slots[j].rem {
			return slots[i].rem > slots[j].rem
		}
		if slots[i].share != slots[j].share {
			return slots[i].share > slots[j].share
		}
		return slots[i].model < slots[j].model
	})
	for i := 0; assigned < k; i = (i + 1) % len(slots) {
		slots[i].count++
		assigned++
	}
	if k >= len(models) {
		// Anti-starvation: give every positive-share model at least one
		// slot, funded by whichever model holds the most.
		for _, s := range slots {
			if s.count > 0 || s.share <= 0 {
				continue
			}
			donor := slots[0]
			for _, d := range slots[1:] {
				if d.count > donor.count {
					donor = d
				}
			}
			if donor.count > 1 {
				donor.count--
				s.count++
			}
		}
	}
	out := make(map[string]int, len(slots))
	for _, s := range slots {
		if s.count > 0 {
			out[s.model] = s.count
		}
	}
	return out
}
