package prefetch

import (
	"math"
	"sync"

	"forecache/internal/trace"
)

// FeedbackCollector closes the loop from cache outcomes back into the
// scheduler: it fits the deployment's position-utility curve online from
// what clients actually consumed, replacing the hard-coded positionBase
// guess (Khameleon fits utility functions from observed client consumption
// logs in exactly this way).
//
// Every prefetched tile eventually produces one Outcome in the cache
// manager — consumed (hit) or evicted unconsumed (miss) — attributed to
// the batch position it was prefetched at. The collector keeps an
// exponentially-weighted moving average of the hit rate per position; the
// scheduler then discounts a queued entry ranked at position p by
// Factor(p), the learned consumption probability of position p relative to
// the front-runner, instead of the static positionBase^p.
//
// Until a position has warmupObs observations its factor falls back to the
// static curve, so a cold deployment behaves exactly like the unlearned
// one. Factors are clamped to (0, 1] and forced non-increasing in p
// (diminishing returns): consumption noise must never invert the batch
// order the recommenders chose, only reshape how steeply it discounts.
//
// Alongside the position curve, the collector keeps per-(phase, model)
// consumption tallies: an EWMA of how often each recommender's prefetches
// get consumed within each predicted analysis phase. That is the signal
// core.AdaptivePolicy re-splits the prefetch budget from — the paper's
// fixed per-phase allocation table (§5.4.3) becomes the prior, and budget
// share shifts toward the model whose predictions the phase's users
// actually consume. The tallies carry evidence decay: a bucket's rate
// halves for every allocHalfLife outcomes the phase produces without it,
// so when a dataset shift silences a once-strong model its stale rate
// fades and the split re-learns instead of being pinned by history.
//
// A FeedbackCollector is shared by every session engine of a deployment
// and by its scheduler; all methods are safe for concurrent use.
type FeedbackCollector struct {
	mu    sync.Mutex
	alpha float64   // EWMA weight of a new observation
	rate  []float64 // EWMA consumption rate by position
	obs   []int     // observations per position
	// per-(phase, model) EWMA consumption rate and observation counts: the
	// allocation feedback signal. Buckets decay by staleness (see
	// allocBucket), so a dataset shift can re-learn the split.
	phaseAlloc map[phaseModel]*allocBucket
	// phaseN counts every outcome a phase has produced, across models: the
	// staleness clock allocation buckets decay against.
	phaseN map[trace.Phase]int
}

// phaseModel keys the allocation tallies.
type phaseModel struct {
	ph    trace.Phase
	model string
}

// allocBucket is one (phase, model) consumption tally with evidence
// decay: rate is the EWMA consumption rate, obs the lifetime observation
// count (the warmup gate), and lastN the phase outcome total at the
// bucket's last observation. A bucket that stops being observed — the
// model's prefetches stopped flowing in that phase, or the dataset
// shifted under it — halves its effective rate every allocHalfLife
// outcomes OTHER models produce in the phase, so stale evidence cannot
// pin the learned split forever and the consumption-proportional target
// drifts back toward the models the phase's users consume NOW. Buckets
// observed at a steady share of the phase's traffic (the exploration
// floor guarantees every model some) decay negligibly between their own
// observations.
type allocBucket struct {
	rate  float64
	obs   int
	lastN int
}

// staleFactor is the decay multiplier for a bucket last observed when the
// phase total was lastN, read at phase total n.
func staleFactor(b *allocBucket, n int) float64 {
	stale := n - b.lastN
	if stale <= 0 {
		return 1
	}
	return math.Pow(0.5, float64(stale)/allocHalfLife)
}

// Collector tuning. The EWMA weight trades adaptation speed against noise:
// at 0.02 the curve's memory is ~50 observations per position, a few
// minutes of one active session's browsing.
const (
	feedbackAlpha = 0.02
	warmupObs     = 30
	minFactor     = 0.01 // learned floor: a tail position never hits zero
	// allocHalfLife is the evidence half-life of the allocation buckets,
	// in phase outcomes: long enough that a model observed at the 0.1
	// exploration floor of a busy phase decays by well under 4% between
	// its own observations, short enough that a few minutes of shifted
	// traffic rewrites a stale split.
	allocHalfLife = 2048
)

// NewFeedbackCollector returns a collector learning factors for positions
// 0..maxPos-1; observations at deeper positions clamp to the last bucket.
// maxPos is typically the deployment's prefetch budget K.
func NewFeedbackCollector(maxPos int) *FeedbackCollector {
	if maxPos < 2 {
		maxPos = 2
	}
	return &FeedbackCollector{
		alpha:      feedbackAlpha,
		rate:       make([]float64, maxPos),
		obs:        make([]int, maxPos),
		phaseAlloc: make(map[phaseModel]*allocBucket),
		phaseN:     make(map[trace.Phase]int),
	}
}

// Observe records one cache outcome: the tile prefetched at batch position
// pos by model, under predicted analysis phase ph, was (hit) or was not
// (miss) consumed before eviction.
func (f *FeedbackCollector) Observe(ph trace.Phase, model string, pos int, hit bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if pos < 0 {
		pos = 0
	}
	if pos >= len(f.rate) {
		pos = len(f.rate) - 1
	}
	v := 0.0
	if hit {
		v = 1.0
	}
	if f.obs[pos] == 0 {
		f.rate[pos] = v
	} else {
		f.rate[pos] += f.alpha * (v - f.rate[pos])
	}
	f.obs[pos]++
	n := f.phaseN[ph] + 1
	f.phaseN[ph] = n
	key := phaseModel{ph: ph, model: model}
	b := f.phaseAlloc[key]
	if b == nil {
		b = &allocBucket{rate: v}
	} else {
		// Fold the staleness decay in before the EWMA step: evidence the
		// bucket accumulated before going quiet counts for less, so the
		// first observations after a long silence move the rate fast.
		b.rate *= staleFactor(b, n-1)
		b.rate += f.alpha * (v - b.rate)
	}
	b.obs++
	b.lastN = n
	f.phaseAlloc[key] = b
}

// AllocationRates implements core.AllocationFeedback: the EWMA
// consumption rate of each model's prefetches under predicted phase ph,
// and how many outcomes it was fit from (0 obs = never prefetched in that
// phase, rate 0), ordered like models. It is batched for the per-request
// hot path: one lock hold answers every model, instead of 2 x len(models)
// separate acquisitions of a mutex shared by all sessions.
func (f *FeedbackCollector) AllocationRates(ph trace.Phase, models []string) (rates []float64, obs []int) {
	rates = make([]float64, len(models))
	obs = make([]int, len(models))
	f.mu.Lock()
	defer f.mu.Unlock()
	for i, m := range models {
		if b := f.phaseAlloc[phaseModel{ph: ph, model: m}]; b != nil {
			rates[i], obs[i] = b.rate*staleFactor(b, f.phaseN[ph]), b.obs
		}
	}
	return rates, obs
}

// Factor returns the position-decay factor for batch position pos: the
// learned consumption rate of pos relative to position 0, or the static
// positionBase^pos while either bucket is still warming up. Factors are
// non-increasing in pos, so within a batch the utility order is always the
// recommenders' rank order.
func (f *FeedbackCollector) Factor(pos int) float64 {
	if pos <= 0 {
		return 1
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	factor := 1.0
	for p := 1; p <= pos; p++ {
		factor = math.Min(factor, f.factorAtLocked(p))
	}
	return factor
}

// Curve snapshots the effective factor per position (index = position)
// under one lock hold, so the exported curve is internally consistent —
// monotone even while Observe calls race the snapshot. It is exactly what
// Factor returns at each position: the learned, monotone curve once warmed
// up, the static one before. Exported under /metrics and /stats so
// operators can watch the fit converge.
func (f *FeedbackCollector) Curve() []float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]float64, len(f.rate))
	factor := 1.0
	for p := range out {
		if p > 0 {
			factor = math.Min(factor, f.factorAtLocked(p))
		}
		out[p] = factor
	}
	return out
}

// factorAtLocked is the raw learned (or fallback) factor at one position,
// before the monotone clamp.
func (f *FeedbackCollector) factorAtLocked(pos int) float64 {
	i := pos
	if i >= len(f.rate) {
		i = len(f.rate) - 1
	}
	if f.obs[i] < warmupObs || f.obs[0] < warmupObs || f.rate[0] <= 0 {
		return math.Pow(positionBase, float64(pos))
	}
	factor := f.rate[i] / f.rate[0]
	if factor > 1 {
		factor = 1
	}
	if factor < minFactor {
		factor = minFactor
	}
	return factor
}

// Observations returns the total outcome count the curve was fit from.
func (f *FeedbackCollector) Observations() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := 0
	for _, c := range f.obs {
		n += c
	}
	return n
}
