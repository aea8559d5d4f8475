package recommend

import (
	"fmt"
	"strconv"
	"sync"

	"forecache/internal/markov"
	"forecache/internal/trace"
)

// AB is the Actions-Based recommender (paper §4.3.2): an n-th-order Markov
// chain over the user's past moves, trained on study traces with
// Kneser–Ney smoothing. It scores each candidate by the smoothed
// probability of the first move of its chain given the session history.
//
// Observe and Reset are no-ops: session context comes from the history
// window passed to Predict. A score is a pure function of the order most
// recent moves and the next one, so each answer is computed once per input
// and shared: one instance is safe for concurrent use by any number of
// session engines — train once, share everywhere.
type AB struct {
	chain *markov.Chain

	mu    sync.Mutex
	probs map[uint64]float64 // by packed context<<4 | next move's code
}

// maxOrder is the longest context a uint64 packs beside the next move.
const maxOrder = 15

// NewAB builds an Actions-Based recommender of the given order, trained on
// the move sequences of the supplied traces (Algorithm 2).
func NewAB(order int, traces []*trace.Trace) (*AB, error) {
	if order > maxOrder {
		return nil, fmt.Errorf("recommend: AB order %d above %d", order, maxOrder)
	}
	chain, err := markov.New(order)
	if err != nil {
		return nil, err
	}
	seqs := make([][]string, 0, len(traces))
	for _, t := range traces {
		seqs = append(seqs, t.Moves())
	}
	chain.Train(seqs)
	return &AB{chain: chain, probs: make(map[uint64]float64)}, nil
}

// Name identifies the model, including its order (e.g. "markov3").
func (m *AB) Name() string { return "markov" + strconv.Itoa(m.chain.Order()) }

// Order returns the chain's context length.
func (m *AB) Order() int { return m.chain.Order() }

// Observe is a no-op: the AB model reads its context from the history
// window passed to Predict.
func (m *AB) Observe(trace.Request) {}

// Reset is a no-op; the model is stateless between requests.
func (m *AB) Reset() {}

// Predict ranks candidates by move probability under the Markov chain.
// Multi-move candidates (d > 1) multiply the chain probabilities along
// their move chain.
func (m *AB) Predict(req trace.Request, cands []Candidate, h *trace.History) []Ranked {
	var buf [maxOrder]trace.Move
	var ctx uint64
	for _, mv := range h.RecentMoves(buf[:0], m.chain.Order()) {
		ctx = m.push(ctx, mv)
	}
	out := make([]Ranked, 0, len(cands))
	for _, c := range cands {
		p, chainCtx := 1.0, ctx
		for _, mv := range c.Moves {
			p *= m.probAfter(chainCtx, mv)
			chainCtx = m.push(chainCtx, mv)
		}
		out = append(out, Ranked{Coord: c.Coord, Score: p})
	}
	return sortRanked(out)
}

// A packed context holds the order most recent moves as 4-bit codes, the
// newest lowest, 0 in an empty slot. A move's code is its value plus one;
// any value outside the nine packs as 0xf, a symbol no study trace holds.
func code(mv trace.Move) uint64 {
	if mv < trace.PanUp || mv > trace.ZoomInSE {
		return 0xf
	}
	return uint64(mv) + 1
}

// push appends a move to a packed context, dropping its oldest past the
// order.
func (m *AB) push(ctx uint64, mv trace.Move) uint64 {
	return (ctx<<4 | code(mv)) & (1<<(4*m.chain.Order()) - 1)
}

// probAfter is the chain's probability of next after the packed context,
// computed on first touch.
func (m *AB) probAfter(ctx uint64, next trace.Move) float64 {
	key := ctx<<4 | code(next)
	m.mu.Lock()
	p, ok := m.probs[key]
	m.mu.Unlock()
	if ok {
		return p
	}
	var syms []string
	for shift := 4*m.chain.Order() - 4; shift >= 0; shift -= 4 {
		if c := ctx >> shift & 0xf; c != 0 {
			syms = append(syms, trace.Move(c-1).String())
		}
	}
	p = m.chain.Prob(syms, next.String())
	m.mu.Lock()
	m.probs[key] = p
	m.mu.Unlock()
	return p
}
