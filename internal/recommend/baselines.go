package recommend

import "forecache/internal/trace"

// Momentum is the baseline from Doshi et al. (paper §5.2.3): the user's
// next move will match her previous move. The matching tile gets
// probability 0.9 and the eight other candidates 0.0125 each — the exact
// constants the paper uses. It is a first-order Markov chain with a
// hand-fixed transition matrix.
type Momentum struct{}

// NewMomentum returns the Momentum baseline.
func NewMomentum() *Momentum { return &Momentum{} }

// Name identifies the model.
func (m *Momentum) Name() string { return "momentum" }

// Predict assigns 0.9 to the candidate reached by repeating the previous
// move and 0.0125 to every other candidate.
func (m *Momentum) Predict(req trace.Request, cands []Candidate, h *trace.History) []Ranked {
	repeat := trace.Apply(req.Coord, req.Move)
	out := make([]Ranked, 0, len(cands))
	for _, c := range cands {
		score := 0.0125
		if req.Move != trace.None && c.Coord == repeat && len(c.Moves) == 1 {
			score = 0.9
		}
		out = append(out, Ranked{Coord: c.Coord, Score: score})
	}
	return sortRanked(out)
}
