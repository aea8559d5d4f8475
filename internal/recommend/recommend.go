// Package recommend implements ForeCache's tile recommendation models
// (paper §4.3): the Actions-Based (AB) Markov-chain model, the
// Signature-Based (SB) visual-similarity model, and the two baselines the
// paper compares against, Momentum and Hotspot (Doshi et al.).
//
// Every model answers the same sub-problem: given the current request, a
// candidate tile set C (all tiles at most d moves away), and the session
// history H, produce an ordering of C by how likely the user is to request
// each tile next (paper §4.3's sub-problem definition).
package recommend

import (
	"slices"

	"forecache/internal/tile"
	"forecache/internal/trace"
)

// Candidate is one prediction target: a tile plus the move chain that
// reaches it from the current tile (length 1 for d=1).
type Candidate struct {
	Coord tile.Coord
	Moves []trace.Move
}

// Bounds abstracts the pyramid geometry the candidate generator needs, so
// models are testable without building real pyramids.
type Bounds interface {
	Contains(c tile.Coord) bool
}

// Candidates enumerates every tile reachable from cur in at most d moves
// (paper §4.3.1), deduplicated to the shortest move chain, in a
// deterministic order. For d=1 this is the classic 9-candidate set: four
// pans, four zoom-in quadrants, one zoom-out, clipped at dataset borders.
// Candidates share their chains' backing arrays: callers only read Moves.
func Candidates(b Bounds, cur tile.Coord, d int) []Candidate {
	out := make([]Candidate, 0, trace.NumMoves)
	frontier := []Candidate{{Coord: cur}}
	for range d {
		next := len(out)
		for _, s := range frontier {
			for i, m := range allMoves {
				to := trace.Apply(s.Coord, m)
				if to == cur || !b.Contains(to) || slices.ContainsFunc(out, func(c Candidate) bool { return c.Coord == to }) {
					continue
				}
				chain := allMoves[i : i+1 : i+1]
				if len(s.Moves) > 0 {
					chain = append(s.Moves[:len(s.Moves):len(s.Moves)], m)
				}
				out = append(out, Candidate{Coord: to, Moves: chain})
			}
		}
		frontier = out[next:]
	}
	return out
}

// allMoves is trace.AllMoves, and the backing of every one-move chain.
var allMoves = trace.AllMoves()

// Ranked is a scored candidate; higher Score means more likely.
type Ranked struct {
	Coord tile.Coord
	Score float64
}

// Model is a tile recommendation model. Predict ranks candidates for the
// next request as a function of its arguments alone: session context (the
// recent moves, SB's region of interest) comes from the history, so one
// instance serves every session of a deployment.
type Model interface {
	Name() string
	Predict(req trace.Request, cands []Candidate, h *trace.History) []Ranked
}

// sortRanked orders by score descending with deterministic coordinate
// tie-breaking.
func sortRanked(out []Ranked) []Ranked {
	slices.SortFunc(out, func(a, b Ranked) int {
		if a.Score != b.Score {
			if a.Score > b.Score {
				return -1
			}
			return 1
		}
		if a.Coord.Less(b.Coord) {
			return -1
		}
		return 1
	})
	return out
}

// TopK trims a ranking to at most k entries.
func TopK(r []Ranked, k int) []Ranked {
	if k < 0 {
		k = 0
	}
	if len(r) > k {
		r = r[:k]
	}
	return r
}

// Contains reports whether the ranking's first k entries include the coord.
func Contains(r []Ranked, k int, c tile.Coord) bool {
	for i, e := range r {
		if i >= k {
			break
		}
		if e.Coord == c {
			return true
		}
	}
	return false
}
