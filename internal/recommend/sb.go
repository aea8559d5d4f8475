package recommend

import (
	"math"

	"forecache/internal/sig"
	"forecache/internal/tile"
	"forecache/internal/trace"
)

// TileSource resolves coordinates to materialized tiles carrying
// signatures. *tile.Pyramid implements it.
type TileSource interface {
	Tile(c tile.Coord) (*tile.Tile, error)
}

// SB is the Signature-Based recommender (paper §4.3.3): it ranks candidate
// tiles by visual similarity to the user's most recent region of interest
// (Algorithm 1, kept by the session's trace.History), using the tile
// signatures computed at pyramid-build time and the distance combination
// of Algorithm 3.
type SB struct {
	src  TileSource
	sigs []string
	name string

	// physicalDivision applies Algorithm 3's line 13 division by the
	// physical distance exactly as printed in the technical report. The
	// printed form rewards distant candidates, contradicting the stated
	// intent of penalizing physical distance (which line 8's 2^(manhattan-1)
	// multiplier already does), so it defaults to off; the ablation bench
	// measures both.
	physicalDivision bool
}

// SBOption configures the SB recommender.
type SBOption func(*SB)

// WithSignatures restricts the recommender to the named signatures (the
// per-signature accuracy experiment of Figure 10b uses one at a time).
func WithSignatures(names ...string) SBOption {
	return func(s *SB) { s.sigs = names }
}

// WithPhysicalDivision enables the literal line-13 division (see the field
// comment); used by the ablation bench.
func WithPhysicalDivision() SBOption {
	return func(s *SB) { s.physicalDivision = true }
}

// NewSB builds a Signature-Based recommender over the tile source.
func NewSB(src TileSource, opts ...SBOption) *SB {
	s := &SB{src: src, sigs: sig.AllNames()}
	for _, opt := range opts {
		opt(s)
	}
	s.name = "sb"
	if len(s.sigs) == 1 {
		s.name = "sb:" + s.sigs[0]
	}
	return s
}

// Name identifies the model ("sb" for the full signature set, or
// "sb:<signature>" when restricted to one).
func (s *SB) Name() string { return s.name }

// Predict implements Algorithm 3. Candidates are ranked by ascending total
// visual distance to the ROI tiles; Ranked.Score is the negated distance so
// that, like every other model, higher scores mean more likely.
func (s *SB) Predict(req trace.Request, cands []Candidate, h *trace.History) []Ranked {
	roi := h.ROI()
	if len(roi) == 0 {
		// No completed ROI yet: fall back to the current tile as the
		// reference for "what the user has requested in the past".
		roi = []tile.Coord{req.Coord}
	}
	roiTiles := make([]*tile.Tile, 0, len(roi))
	for _, c := range roi {
		if t, err := s.src.Tile(c); err == nil {
			roiTiles = append(roiTiles, t)
		}
	}
	out := make([]Ranked, 0, len(cands))
	if len(roiTiles) == 0 {
		for _, c := range cands {
			out = append(out, Ranked{Coord: c.Coord})
		}
		return sortRanked(out)
	}

	type pair struct {
		cand  int
		roi   int
		dists []float64 // per signature, after the physical penalty
	}
	nsig := len(s.sigs)
	pairs := make([]pair, 0, len(cands)*len(roiTiles))
	// One backing for the per-signature maxima, the norm buffer, the
	// per-candidate totals and every pair's distances.
	floats := make([]float64, 2*nsig+len(cands)+cap(pairs)*nsig)
	maxD, norm := floats[:nsig], floats[nsig:2*nsig]
	total, dists := floats[2*nsig:2*nsig+len(cands)], floats[2*nsig+len(cands):]
	for i := range maxD {
		maxD[i] = 1 // Algorithm 3 line 2: d_MAX starts at 1
	}
	candSigs := make([][]float64, nsig)
	for ci, c := range cands {
		t, err := s.src.Tile(c.Coord)
		if err != nil {
			total[ci] = math.Inf(1) // no pairs: ranked last
			continue
		}
		for si, name := range s.sigs {
			candSigs[si] = t.Signatures[name]
		}
		for ri, rt := range roiTiles {
			p := pair{cand: ci, roi: ri, dists: dists[:nsig:nsig]}
			dists = dists[nsig:]
			manh := c.Coord.ManhattanTo(rt.Coord)
			penalty := math.Ldexp(1, manh-1) // line 8's 2^(dmanh-1), exactly
			for si, name := range s.sigs {
				sa := candSigs[si]
				sb := rt.Signatures[name]
				if sa == nil || sb == nil {
					continue
				}
				d := penalty * sig.ChiSquared(sa, sb)
				p.dists[si] = d
				if d > maxD[si] {
					maxD[si] = d
				}
			}
			pairs = append(pairs, p)
		}
	}

	// Lines 10-13: normalize per signature, then combine with the ℓ2 norm
	// (paper: "All signatures are assigned equal weight by default");
	// lines 14-15: sum pair distances per candidate.
	for _, p := range pairs {
		for si, d := range p.dists {
			norm[si] = d / maxD[si]
		}
		dAB := sig.WeightedL2(norm, nil)
		if s.physicalDivision {
			if phys := cands[p.cand].Coord.ManhattanTo(roiTiles[p.roi].Coord); phys > 0 {
				dAB /= float64(phys)
			}
		}
		total[p.cand] += dAB
	}
	for ci, c := range cands {
		out = append(out, Ranked{Coord: c.Coord, Score: -total[ci]})
	}
	return sortRanked(out)
}
