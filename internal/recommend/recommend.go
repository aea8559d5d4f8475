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
	"sort"

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
func Candidates(b Bounds, cur tile.Coord, d int) []Candidate {
	type state struct {
		coord tile.Coord
		moves []trace.Move
	}
	seen := map[tile.Coord]bool{cur: true}
	frontier := []state{{coord: cur}}
	var out []Candidate
	for depth := 0; depth < d; depth++ {
		var next []state
		for _, s := range frontier {
			for _, m := range trace.AllMoves() {
				to := trace.Apply(s.coord, m)
				if to == s.coord || !b.Contains(to) || seen[to] {
					continue
				}
				seen[to] = true
				chain := append(append([]trace.Move(nil), s.moves...), m)
				next = append(next, state{coord: to, moves: chain})
				out = append(out, Candidate{Coord: to, Moves: chain})
			}
		}
		frontier = next
	}
	return out
}

// Ranked is a scored candidate; higher Score means more likely.
type Ranked struct {
	Coord tile.Coord
	Score float64
}

// Model is a tile recommendation model. Observe feeds it the user's actual
// requests (stateful models like SB track the region of interest); Predict
// ranks candidates for the next request; Reset clears per-session state.
type Model interface {
	Name() string
	Observe(req trace.Request)
	Predict(req trace.Request, cands []Candidate, h *trace.History) []Ranked
	Reset()
}

// sortRanked orders by score descending with deterministic coordinate
// tie-breaking.
func sortRanked(out []Ranked) []Ranked {
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Coord.Less(out[j].Coord)
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
