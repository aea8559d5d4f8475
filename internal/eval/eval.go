// Package eval is the experiment harness: it reproduces every table and
// figure of the paper's evaluation (§5) over traces from the study
// simulator, using leave-one-out cross-validation across users exactly as
// the paper does (§5.4).
//
// Prediction accuracy is measured as the paper defines it (§5.2.2): step
// through a request log; after each request collect each model's ranked
// predictions trimmed to its allotment k; count whether the next requested
// tile is in the list. Accuracy is attributed to the analysis phase of the
// predicted (next) request.
package eval

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"forecache/internal/backend"
	"forecache/internal/core"
	"forecache/internal/phase"
	"forecache/internal/recommend"
	"forecache/internal/sig"
	"forecache/internal/tile"
	"forecache/internal/trace"
)

// Harness bundles the dataset and traces an experiment runs over.
type Harness struct {
	Pyr    *tile.Pyramid
	Attr   string
	Traces []*trace.Trace
	// HistoryLen is the session history window n (default 3).
	HistoryLen int
	// D is the prediction distance in moves (default 1).
	D int
	// MaxTrainRequests caps the classifier's training set per fold for
	// bounded SMO time (deterministic subsample; default 800).
	MaxTrainRequests int
	// Seed drives deterministic subsampling.
	Seed int64
	// classifiers memoizes each fold's phase classifier by held-out user;
	// Traces, MaxTrainRequests and Seed must not change once it has entries.
	classifiers map[int]*phase.Classifier
}

func (h *Harness) withDefaults() {
	if h.HistoryLen <= 0 {
		h.HistoryLen = 3
	}
	if h.D <= 0 {
		h.D = 1
	}
	if h.MaxTrainRequests <= 0 {
		h.MaxTrainRequests = 800
	}
	if h.classifiers == nil {
		h.classifiers = make(map[int]*phase.Classifier)
	}
}

// Point is one accuracy measurement cell: model x k x phase.
// Phase trace.PhaseUnknown aggregates all phases ("overall").
type Point struct {
	Model string
	K     int
	Phase trace.Phase
	Hits  int
	Total int
}

// Accuracy returns Hits/Total (0 when empty).
func (p Point) Accuracy() float64 {
	if p.Total == 0 {
		return 0
	}
	return float64(p.Hits) / float64(p.Total)
}

// Table accumulates points keyed by (model, k, phase).
type Table struct {
	points map[string]*Point
	order  []string
}

// NewTable returns an empty accuracy table.
func NewTable() *Table { return &Table{points: make(map[string]*Point)} }

func key(model string, k int, ph trace.Phase) string {
	return fmt.Sprintf("%s|%d|%d", model, k, int(ph))
}

// Add records one prediction outcome.
func (t *Table) Add(model string, k int, ph trace.Phase, hit bool) {
	for _, p := range []trace.Phase{ph, trace.PhaseUnknown} {
		kk := key(model, k, p)
		pt := t.points[kk]
		if pt == nil {
			pt = &Point{Model: model, K: k, Phase: p}
			t.points[kk] = pt
			t.order = append(t.order, kk)
		}
		pt.Total++
		if hit {
			pt.Hits++
		}
	}
}

// Get returns the accumulated point for (model, k, phase).
func (t *Table) Get(model string, k int, ph trace.Phase) Point {
	if pt, ok := t.points[key(model, k, ph)]; ok {
		return *pt
	}
	return Point{Model: model, K: k, Phase: ph}
}

// Points returns all cells in insertion order.
func (t *Table) Points() []Point {
	out := make([]Point, 0, len(t.order))
	for _, kk := range t.order {
		out = append(out, *t.points[kk])
	}
	return out
}

// Merge folds another table into this one.
func (t *Table) Merge(o *Table) {
	for _, kk := range o.order {
		src := o.points[kk]
		dst := t.points[kk]
		if dst == nil {
			cp := *src
			t.points[kk] = &cp
			t.order = append(t.order, kk)
			continue
		}
		dst.Hits += src.Hits
		dst.Total += src.Total
	}
}

// ModelFactory builds a recommendation model trained on the given traces.
// Models without a training phase ignore the argument.
type ModelFactory func(train []*trace.Trace) (recommend.Model, error)

// MomentumFactory builds the Momentum baseline.
func MomentumFactory() ModelFactory {
	return func([]*trace.Trace) (recommend.Model, error) {
		return recommend.NewMomentum(), nil
	}
}

// HotspotFactory builds the trace-trained hotspot baseline with n hotspots.
func HotspotFactory(n, radius int) ModelFactory {
	return func(train []*trace.Trace) (recommend.Model, error) {
		return newTraceHotspot(train, n, radius), nil
	}
}

// ABFactory builds the order-n Actions-Based Markov model.
func ABFactory(order int) ModelFactory {
	return func(train []*trace.Trace) (recommend.Model, error) {
		return recommend.NewAB(order, train)
	}
}

// SBFactory builds a Signature-Based model over the harness pyramid,
// optionally restricted to specific signatures.
func (h *Harness) SBFactory(sigs ...string) ModelFactory {
	return func([]*trace.Trace) (recommend.Model, error) {
		if len(sigs) == 0 {
			return recommend.NewSB(h.Pyr), nil
		}
		return recommend.NewSB(h.Pyr, recommend.WithSignatures(sigs...)), nil
	}
}

// SBDivFactory builds the Signature-Based model with Algorithm 3's
// line-13 physical-distance division enabled exactly as printed in the
// technical report (the ablation comparing both readings of the
// algorithm).
func (h *Harness) SBDivFactory(sigs ...string) ModelFactory {
	return func([]*trace.Trace) (recommend.Model, error) {
		opts := []recommend.SBOption{recommend.WithPhysicalDivision()}
		if len(sigs) > 0 {
			opts = append(opts, recommend.WithSignatures(sigs...))
		}
		return recommend.NewSB(h.Pyr, opts...), nil
	}
}

// fold is one leave-one-user-out split (paper §5.4): user is held out.
type fold struct {
	user        int
	train, test []*trace.Trace
}

// folds yields the leave-one-user-out splits in user order.
func (h *Harness) folds() []fold {
	users := map[int]bool{}
	for _, t := range h.Traces {
		users[t.User] = true
	}
	var ids []int
	for u := range users {
		ids = append(ids, u)
	}
	sort.Ints(ids)
	var out []fold
	for _, u := range ids {
		f := fold{user: u}
		for _, t := range h.Traces {
			if t.User == u {
				f.test = append(f.test, t)
			} else {
				f.train = append(f.train, t)
			}
		}
		out = append(out, f)
	}
	return out
}

// EvalModelLOO measures one model's prediction accuracy with leave-one-out
// cross-validation, for every k in ks, attributed per phase: the one-model
// engine, every slot allocated to it and no phase classifier.
func (h *Harness) EvalModelLOO(name string, factory ModelFactory, ks []int) (*Table, error) {
	return h.evalLOO(name, SingleEngineSetup(factory), false, ks)
}

// evalLOO is the paper's accuracy measurement (§5.2.2), once: per fold build
// the engine's pieces on 17 users and step through the held-out user's
// traces. oracle discards the setup's classifier (ground-truth phases).
func (h *Harness) evalLOO(name string, setup EngineSetup, oracle bool, ks []int) (*Table, error) {
	h.withDefaults()
	table := NewTable()
	for _, fold := range h.folds() {
		models, policy, cls, err := setup(fold)
		if err != nil {
			return nil, fmt.Errorf("eval: build %s: %w", name, err)
		}
		if oracle {
			cls = nil
		}
		for _, tr := range fold.test {
			h.step(name, models, policy, cls, tr, ks, table)
		}
	}
	return table, nil
}

// step replays one trace: after each request, is the next tile in some
// model's ranking trimmed to the slots the policy allots that model for the
// request's phase (cls's prediction; the ground-truth label when cls is nil)?
func (h *Harness) step(name string, models []recommend.Model, policy core.AllocationPolicy, cls *phase.Classifier, tr *trace.Trace, ks []int, table *Table) {
	for _, m := range models {
		m.Reset()
	}
	hist := trace.NewHistory(h.HistoryLen)
	ranks := make([][]recommend.Ranked, len(models))
	for i := 0; i+1 < len(tr.Requests); i++ {
		r, next := tr.Requests[i], tr.Requests[i+1]
		hist.Push(r)
		for _, m := range models {
			m.Observe(r)
		}
		ph := r.Phase
		if cls != nil {
			ph = cls.Predict(r)
		}
		cands := recommend.Candidates(h.Pyr, r.Coord, h.D)
		for j, m := range models {
			ranks[j] = m.Predict(r, cands, hist)
		}
		for _, k := range ks {
			alloc := policy.Allocations(ph, k)
			hit := false
			for j, m := range models {
				if recommend.Contains(ranks[j], alloc[m.Name()], next.Coord) {
					hit = true
					break
				}
			}
			table.Add(name, k, next.Phase, hit)
		}
	}
}

// HybridSpec configures the two-level engine evaluation.
type HybridSpec struct {
	// Name labels the rows (default "hybrid").
	Name string
	// ABOrder is the Markov order (paper: 3).
	ABOrder int
	// SBSigs restricts the SB model's signatures (paper: SIFT only).
	SBSigs []string
	// ABFirst is how many slots AB fills before SB (paper: 4).
	ABFirst int
	// OriginalTable switches to the pre-tuning §4.4 allocation
	// strategy (ablation).
	OriginalTable bool
	// OraclePhases uses ground-truth phase labels instead of the trained
	// classifier (ablation isolating classifier error).
	OraclePhases bool
}

// specs is the registry composition the spec describes: the default AB +
// SB pair, with AB's prior column overridden for the two allocation
// ablations (SB keeps the remainder column, so it still owns Sensemaking).
func (spec HybridSpec) specs() []recommend.Spec {
	order := spec.ABOrder
	if order <= 0 {
		order = 3
	}
	sigs := spec.SBSigs
	if len(sigs) == 0 {
		sigs = []string{sig.NameSIFT}
	}
	specs := recommend.DefaultSpecs(order, sigs, nil)
	switch {
	case spec.OriginalTable:
		// §4.4: Navigation all AB, Sensemaking all SB, Foraging an equal
		// split with the odd slot to AB.
		specs[0].Prior = func(ph trace.Phase, k int) int {
			switch ph {
			case trace.Navigation:
				return k
			case trace.Sensemaking:
				return 0
			default:
				return k - k/2
			}
		}
	case spec.ABFirst > 0:
		// §5.4.3 with a custom split: the first min(k, ABFirst) slots.
		first := spec.ABFirst
		specs[0].Prior = func(ph trace.Phase, k int) int {
			if ph == trace.Sensemaking {
				return 0
			}
			return first
		}
	}
	return specs
}

// EvalHybridLOO measures the full two-level prediction engine: per fold it
// trains the phase classifier and the AB chain on 17 users and replays the
// held-out user's traces, combining the models' rankings per the spec's
// allocation table (§5.4.3).
func (h *Harness) EvalHybridLOO(spec HybridSpec, ks []int) (*Table, error) {
	if spec.Name == "" {
		spec.Name = "hybrid"
	}
	return h.evalLOO(spec.Name, h.HybridEngineSetup(spec), spec.OraclePhases, ks)
}

// sampleRequests flattens training traces into labeled requests, capped at
// MaxTrainRequests by deterministic subsampling so SVM training stays fast.
func (h *Harness) sampleRequests(traces []*trace.Trace) []trace.Request {
	reqs := phase.Requests(traces)
	if len(reqs) <= h.MaxTrainRequests {
		return reqs
	}
	rng := rand.New(rand.NewSource(h.Seed + 17))
	idx := rng.Perm(len(reqs))[:h.MaxTrainRequests]
	sort.Ints(idx)
	out := make([]trace.Request, len(idx))
	for i, j := range idx {
		out[i] = reqs[j]
	}
	return out
}

// PhaseResult reports the phase classifier's LOO accuracy for one feature
// subset (Table 1 rows and the §5.4.1 overall figure).
type PhaseResult struct {
	Features []int
	Label    string
	Correct  int
	Total    int
}

// Accuracy returns the fraction classified correctly.
func (r PhaseResult) Accuracy() float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.Correct) / float64(r.Total)
}

// EvalPhaseLOO measures the phase classifier's leave-one-out accuracy for
// a feature subset (nil = all six Table 1 features).
func (h *Harness) EvalPhaseLOO(features []int, label string) (PhaseResult, error) {
	h.withDefaults()
	res := PhaseResult{Features: features, Label: label}
	for _, fold := range h.folds() {
		cls, err := h.classifier(fold, features)
		if err != nil {
			return res, err
		}
		for _, tr := range fold.test {
			for _, r := range tr.Requests {
				if r.Phase == trace.PhaseUnknown {
					continue
				}
				res.Total++
				if cls.Predict(r) == r.Phase {
					res.Correct++
				}
			}
		}
	}
	return res, nil
}

// Latency converts a prediction accuracy into the paper's average response
// time under the hit/miss latency model (§5.5: cache hits answer in ~19.5
// ms, misses in ~984 ms, so avg = acc*hit + (1-acc)*miss).
func Latency(acc float64, lm backend.LatencyModel) time.Duration {
	return time.Duration(acc*float64(lm.Hit) + (1-acc)*float64(lm.Miss))
}

// Regression is a least-squares line fit y = Intercept + Slope*x.
type Regression struct {
	Slope     float64
	Intercept float64
	R2        float64
	N         int
}

// Fit computes the ordinary least squares fit of y on x.
func Fit(x, y []float64) Regression {
	n := len(x)
	if len(y) < n {
		n = len(y)
	}
	if n < 2 {
		return Regression{N: n}
	}
	var sx, sy float64
	for i := 0; i < n; i++ {
		sx += x[i]
		sy += y[i]
	}
	mx, my := sx/float64(n), sy/float64(n)
	var sxx, sxy, syy float64
	for i := 0; i < n; i++ {
		dx, dy := x[i]-mx, y[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return Regression{N: n, Intercept: my}
	}
	slope := sxy / sxx
	intercept := my - slope*mx
	r2 := 1.0
	if syy > 0 {
		ssRes := 0.0
		for i := 0; i < n; i++ {
			resid := y[i] - (intercept + slope*x[i])
			ssRes += resid * resid
		}
		r2 = 1 - ssRes/syy
	}
	return Regression{Slope: slope, Intercept: intercept, R2: r2, N: n}
}
