package recommend

import (
	"forecache/internal/markov"
	"forecache/internal/trace"
)

// AB is the Actions-Based recommender (paper §4.3.2): an n-th-order Markov
// chain over the user's past moves, trained on study traces with
// Kneser–Ney smoothing. It scores each candidate by the smoothed
// probability of the first move of its chain given the session history.
//
// Once trained, an AB is immutable: Observe and Reset are no-ops (session
// context comes from the history window passed to Predict) and Predict only
// reads the chain. One instance is therefore safe for concurrent use by any
// number of session engines — train once, share everywhere.
type AB struct {
	chain *markov.Chain
}

// NewAB builds an Actions-Based recommender of the given order, trained on
// the move sequences of the supplied traces (Algorithm 2).
func NewAB(order int, traces []*trace.Trace) (*AB, error) {
	chain, err := markov.New(order)
	if err != nil {
		return nil, err
	}
	seqs := make([][]string, 0, len(traces))
	for _, t := range traces {
		seqs = append(seqs, t.Moves())
	}
	chain.Train(seqs)
	return &AB{chain: chain}, nil
}

// Name identifies the model, including its order (e.g. "markov3").
func (m *AB) Name() string { return "markov" + itoa(m.chain.Order()) }

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
	ctx := h.MoveSymbols()
	out := make([]Ranked, 0, len(cands))
	for _, c := range cands {
		p := 1.0
		chainCtx := ctx
		for _, mv := range c.Moves {
			sym := mv.String()
			p *= m.chain.Prob(chainCtx, sym)
			chainCtx = append(append([]string(nil), chainCtx...), sym)
		}
		out = append(out, Ranked{Coord: c.Coord, Score: p})
	}
	return sortRanked(out)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
