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

	"forecache/internal/svm"
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
// A trained Classifier is immutable — Predict and Accuracy only read the
// fitted SVM — so one instance is safe for concurrent use and is meant to
// be trained once and shared by every session engine of a deployment.
type Classifier struct {
	svm      *svm.Classifier
	features []int // indices into the full feature vector
}

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
	for _, r := range reqs {
		if r.Phase == trace.PhaseUnknown {
			continue
		}
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
	m, err := svm.Train(x, y, svm.Config{})
	if err != nil {
		return nil, fmt.Errorf("phase: %w", err)
	}
	return &Classifier{svm: m, features: features}, nil
}

// Predict returns the predicted phase for a request.
func (c *Classifier) Predict(r trace.Request) trace.Phase {
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
