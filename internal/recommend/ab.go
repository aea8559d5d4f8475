package recommend

import (
	"fmt"
	"math/bits"
	"strconv"
	"sync"

	"forecache/internal/trace"
)

// AB is the Actions-Based recommender (paper §4.3.2): an n-th-order Markov
// chain over the user's past moves, trained on study traces (Algorithm 2)
// and smoothed with interpolated Kneser–Ney (Chen & Goodman), the method
// the paper applies via BerkeleyLM. It scores each candidate by the
// smoothed probability of the first move of its chain given the session
// history.
//
// Session context comes from the history window passed to Predict. A score
// is a pure function of the order most recent moves and the next one, so
// each answer is computed once per input and shared: one instance is safe
// for concurrent use by any number of session engines — train once, share
// everywhere.
type AB struct {
	order int
	name  string
	// tables[k] holds, by packed length-k context, the raw (k == order) or
	// continuation (k < order) counts of the moves that followed it.
	tables  []map[uint64]*counts
	uniform float64 // 1 over the moves seen in training; 0 untrained

	mu    sync.Mutex
	probs map[uint64]float64 // by packed context<<4 | next move's code
}

// counts tallies the moves after one context, by move code.
type counts struct {
	n               [16]float64
	total, distinct float64
}

// maxOrder is the longest context a uint64 packs beside the next move.
const maxOrder = 15

// discount is the Kneser–Ney absolute-discount constant, the standard
// default from the language-modeling literature.
const discount = 0.75

// NewAB builds an Actions-Based recommender of the given order, trained on
// the moves of the supplied traces (Algorithm 2): every run of order
// consecutive moves is a state, and the move after it bumps that state's
// transition count. None requests are skipped, wherever they fall.
func NewAB(order int, traces []*trace.Trace) (*AB, error) {
	if order < 1 || order > maxOrder {
		return nil, fmt.Errorf("recommend: AB order %d outside 1..%d", order, maxOrder)
	}
	m := &AB{order: order, name: "markov" + strconv.Itoa(order), tables: make([]map[uint64]*counts, order+1), probs: make(map[uint64]float64)}
	for k := range m.tables {
		m.tables[k] = make(map[uint64]*counts)
	}
	var seen uint16
	for _, t := range traces {
		var ctx uint64
		n := 0
		for _, r := range t.Requests {
			if r.Move == trace.None {
				continue
			}
			if n >= order {
				bump(m.tables[order], ctx, code(r.Move))
			}
			seen |= 1 << code(r.Move)
			ctx = m.push(ctx, r.Move)
			n++
		}
	}
	if seen != 0 {
		m.uniform = 1 / float64(bits.OnesCount16(seen))
	}
	// Below the order, a (context, move) pair counts the distinct older
	// moves that preceded it one order up: Kneser–Ney continuation counts.
	for k := order - 1; k >= 0; k-- {
		for ctx, c := range m.tables[k+1] {
			for next, n := range c.n {
				if n > 0 {
					bump(m.tables[k], ctx&(1<<(4*k)-1), uint64(next))
				}
			}
		}
	}
	return m, nil
}

func bump(t map[uint64]*counts, ctx, next uint64) {
	c := t[ctx]
	if c == nil {
		c = new(counts)
		t[ctx] = c
	}
	if c.n[next] == 0 {
		c.distinct++
	}
	c.n[next]++
	c.total++
}

// Name identifies the model, including its order (e.g. "markov3").
func (m *AB) Name() string { return m.name }

// Predict ranks candidates by move probability under the Markov chain.
// Multi-move candidates (d > 1) multiply the chain probabilities along
// their move chain.
func (m *AB) Predict(req trace.Request, cands []Candidate, h *trace.History) []Ranked {
	var buf [maxOrder]trace.Move
	var ctx uint64
	for _, mv := range h.RecentMoves(buf[:0], m.order) {
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
	return (ctx<<4 | code(mv)) & (1<<(4*m.order) - 1)
}

// probAfter is prob memoized by packed context and next move.
func (m *AB) probAfter(ctx uint64, next trace.Move) float64 {
	key := ctx<<4 | code(next)
	m.mu.Lock()
	p, ok := m.probs[key]
	m.mu.Unlock()
	if ok {
		return p
	}
	p = m.prob(ctx, next)
	m.mu.Lock()
	m.probs[key] = p
	m.mu.Unlock()
	return p
}

// prob is the chain's interpolated Kneser–Ney probability of next after
// the packed context.
func (m *AB) prob(ctx uint64, next trace.Move) float64 {
	return m.backoff((bits.Len64(ctx)+3)/4, ctx, code(next))
}

// backoff is prob over the newest k moves of the context, backing off by
// dropping the oldest.
func (m *AB) backoff(k int, ctx, next uint64) float64 {
	if k < 0 {
		return m.uniform
	}
	ctx &= 1<<(4*k) - 1
	c := m.tables[k][ctx]
	if c == nil {
		return m.backoff(k-1, ctx, next)
	}
	p := 0.0
	if c.n[next] > discount {
		p = (c.n[next] - discount) / c.total
	}
	lambda := discount * c.distinct / c.total
	return p + lambda*m.backoff(k-1, ctx, next)
}
