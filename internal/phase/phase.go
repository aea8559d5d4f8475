// Package phase implements ForeCache's analysis-phase model: feature
// extraction per Table 1 and the SVM classifier that predicts the user's
// current phase from her recent requests (paper §4.2). Training labels
// come with the traces: the study simulator writes each request's
// ground-truth phase, standing in for the paper's hand labeling.
//
// The three phases (defined in package trace, next to the labeled request
// type) are:
//
//	Foraging     scanning coarse zoom levels for interesting regions
//	Sensemaking  comparing neighboring tiles at detailed zoom levels
//	Navigation   zooming between the coarse and detailed levels
package phase

import (
	"fmt"
	"sync/atomic"

	"forecache/internal/svm"
	"forecache/internal/tile"
	"forecache/internal/trace"
)

// FeatureNames lists the six Table 1 features in vector order.
var FeatureNames = []string{
	"x-position", "y-position", "zoom-level",
	"pan-flag", "zoom-in-flag", "zoom-out-flag",
}

// NumFeatures is the full feature vector length.
const NumFeatures = 6

// Features computes the Table 1 feature vector for a request: the tile's
// X and Y positions (in tiles), its zoom level, and three move flags
// describing how the user arrived there.
func Features(r trace.Request) []float64 {
	f := make([]float64, NumFeatures)
	f[0] = float64(r.Coord.X)
	f[1] = float64(r.Coord.Y)
	f[2] = float64(r.Coord.Level)
	if r.Move.IsPan() {
		f[3] = 1
	}
	if r.Move.IsZoomIn() {
		f[4] = 1
	}
	if r.Move.IsZoomOut() {
		f[5] = 1
	}
	return f
}

// Classifier predicts the user's current analysis phase from a request's
// features with a multi-class RBF-kernel SVM (paper §4.2.2). A Classifier
// may be restricted to a subset of the Table 1 features, which is how the
// per-feature accuracy column of Table 1 is reproduced.
//
// The features are a pure function of the tile and of the move's class
// (none, pan, zoom-in, zoom-out), so each answer is computed once per input
// and shared: one instance is safe for concurrent use and is meant to be
// trained once and shared by every session engine of a deployment.
type Classifier struct {
	svm      *svm.Classifier
	features []int // indices into the full feature vector
	// table holds a word per tile of levels [0, levels), at tile.Index:
	// byte k is move class k's phase plus one, or 0 until first asked.
	table  []atomic.Uint32
	levels int
}

// maxTableLevels caps the table at ~350k words (1.4 MB) at any depth.
const maxTableLevels = 10

// TrainConfig controls classifier training.
type TrainConfig struct {
	// Features selects feature indices (into FeatureNames); nil means all.
	Features []int
}

// Train fits the phase classifier on labeled requests (Phase must be set
// on every request; unlabeled requests are skipped).
func Train(reqs []trace.Request, cfg TrainConfig) (*Classifier, error) {
	features := cfg.Features
	if len(features) == 0 {
		features = make([]int, NumFeatures)
		for i := range features {
			features[i] = i
		}
	}
	for _, fi := range features {
		if fi < 0 || fi >= NumFeatures {
			return nil, fmt.Errorf("phase: feature index %d outside [0,%d)", fi, NumFeatures)
		}
	}
	var x [][]float64
	var y []int
	deepest := -1
	for _, r := range reqs {
		if r.Phase == trace.PhaseUnknown {
			continue
		}
		deepest = max(deepest, r.Coord.Level)
		full := Features(r)
		row := make([]float64, len(features))
		for i, fi := range features {
			row[i] = full[fi]
		}
		x = append(x, row)
		y = append(y, int(r.Phase))
	}
	if len(x) == 0 {
		return nil, fmt.Errorf("phase: no labeled requests to train on")
	}
	m, err := svm.Train(x, y)
	if err != nil {
		return nil, fmt.Errorf("phase: %w", err)
	}
	levels := min(deepest+1, maxTableLevels)
	return &Classifier{svm: m, features: features, levels: levels,
		table: make([]atomic.Uint32, tile.Index(tile.Coord{Level: levels}))}, nil
}

// Predict returns the predicted phase for a request. It reads the table,
// filling the request's entry on first touch; a tile outside the table is
// computed and not stored.
func (c *Classifier) Predict(r trace.Request) trace.Phase {
	co := r.Coord
	if co.Level < 0 || co.Level >= c.levels || uint(co.Y)>>co.Level != 0 || uint(co.X)>>co.Level != 0 {
		return c.fill(r)
	}
	w, shift := &c.table[tile.Index(co)], 8*moveClass(r.Move)
	old := w.Load()
	if b := uint8(old >> shift); b != 0 {
		return trace.Phase(b - 1)
	}
	ph := c.fill(r)
	for !w.CompareAndSwap(old, old|uint32(ph+1)<<shift) {
		old = w.Load() // another byte was filled meanwhile: merge
	}
	return ph
}

// moveClass numbers the move's Table 1 flags: 0 none, 1 pan, 2 zoom-in,
// 3 zoom-out.
func moveClass(m trace.Move) int {
	switch {
	case m.IsPan():
		return 1
	case m.IsZoomIn():
		return 2
	case m.IsZoomOut():
		return 3
	}
	return 0
}

// fill runs the SVM on the request's features.
func (c *Classifier) fill(r trace.Request) trace.Phase {
	full := Features(r)
	row := make([]float64, len(c.features))
	for i, fi := range c.features {
		row[i] = full[fi]
	}
	return trace.Phase(c.svm.Predict(row))
}

// Accuracy scores the classifier against labeled requests, returning the
// fraction predicted correctly (unlabeled requests are skipped).
func (c *Classifier) Accuracy(reqs []trace.Request) float64 {
	correct, total := 0, 0
	for _, r := range reqs {
		if r.Phase == trace.PhaseUnknown {
			continue
		}
		total++
		if c.Predict(r) == r.Phase {
			correct++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(correct) / float64(total)
}

// Requests flattens traces into one labeled request list, the training
// currency of this package.
func Requests(traces []*trace.Trace) []trace.Request {
	var out []trace.Request
	for _, t := range traces {
		out = append(out, t.Requests...)
	}
	return out
}
