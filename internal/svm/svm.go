// Package svm implements a multi-class support vector machine with an RBF
// kernel, trained by sequential minimal optimization (SMO). It replaces the
// LibSVM library the paper uses for its analysis-phase classifier
// (paper §4.2.2): a multi-class SVM with an RBF kernel over small feature
// vectors.
//
// Binary machines are trained with Platt's simplified SMO; multi-class
// classification uses one-vs-one voting with decision-value tie-breaking,
// the same scheme LibSVM uses. Features are standardized (zero mean, unit
// variance) from the training set.
package svm

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Kernel computes the kernel product of two feature vectors.
type Kernel func(a, b []float64) float64

// RBF returns the Gaussian radial basis kernel exp(-gamma * ||a-b||²),
// the kernel the paper's classifier uses.
func RBF(gamma float64) Kernel {
	return func(a, b []float64) float64 {
		d := 0.0
		for i := range a {
			diff := a[i] - b[i]
			d += diff * diff
		}
		return math.Exp(-gamma * d)
	}
}

// Config controls training.
type Config struct {
	// C is the soft-margin penalty. Defaults to 1.
	C float64
	// Gamma is the RBF kernel width. Defaults to 1/dims.
	Gamma float64
	// Tol is the KKT violation tolerance. Defaults to 1e-3.
	Tol float64
	// MaxPasses is the number of full passes without alpha changes that
	// terminates SMO. Defaults to 5.
	MaxPasses int
	// MaxIter bounds total SMO iterations. Defaults to 2000.
	MaxIter int
	// Seed drives the deterministic partner-selection shuffle.
	Seed int64
}

func (c Config) withDefaults(dims int) Config {
	if c.C <= 0 {
		c.C = 1
	}
	if c.Gamma <= 0 {
		c.Gamma = 1 / float64(dims)
	}
	if c.Tol <= 0 {
		c.Tol = 1e-3
	}
	if c.MaxPasses <= 0 {
		c.MaxPasses = 5
	}
	if c.MaxIter <= 0 {
		c.MaxIter = 2000
	}
	return c
}

// binary is one trained two-class machine over standardized features.
type binary struct {
	classA, classB int // classA is the +1 label, classB the -1 label
	alphas         []float64
	b              float64
	x              [][]float64
	y              []float64
}

func (m *binary) decision(kernel Kernel, x []float64) float64 {
	s := -m.b
	for i := range m.x {
		if m.alphas[i] == 0 {
			continue
		}
		s += m.alphas[i] * m.y[i] * kernel(m.x[i], x)
	}
	return s
}

// Classifier is a trained multi-class SVM.
type Classifier struct {
	classes  []int
	machines []*binary
	kernel   Kernel
	mean     []float64
	scale    []float64
}

// Train fits a one-vs-one multi-class SVM on rows X with integer labels y.
func Train(x [][]float64, y []int, cfg Config) (*Classifier, error) {
	if len(x) == 0 || len(x) != len(y) {
		return nil, fmt.Errorf("svm: need matching non-empty X (%d) and y (%d)", len(x), len(y))
	}
	dims := len(x[0])
	for i, row := range x {
		if len(row) != dims {
			return nil, fmt.Errorf("svm: row %d has %d features, want %d", i, len(row), dims)
		}
	}
	cfg = cfg.withDefaults(dims)

	cls := &Classifier{kernel: RBF(cfg.Gamma)}
	cls.mean, cls.scale = standardizer(x)
	xs := make([][]float64, len(x))
	for i, row := range x {
		xs[i] = cls.standardize(row)
	}

	seen := map[int]bool{}
	for _, label := range y {
		if !seen[label] {
			seen[label] = true
			cls.classes = append(cls.classes, label)
		}
	}
	sort.Ints(cls.classes)
	if len(cls.classes) < 2 {
		return nil, fmt.Errorf("svm: need at least 2 classes, got %d", len(cls.classes))
	}

	for i := 0; i < len(cls.classes); i++ {
		for j := i + 1; j < len(cls.classes); j++ {
			a, b := cls.classes[i], cls.classes[j]
			var subX [][]float64
			var subY []float64
			for k, label := range y {
				switch label {
				case a:
					subX = append(subX, xs[k])
					subY = append(subY, 1)
				case b:
					subX = append(subX, xs[k])
					subY = append(subY, -1)
				}
			}
			m := trainBinary(subX, subY, cls.kernel, cfg)
			m.classA, m.classB = a, b
			cls.machines = append(cls.machines, m)
		}
	}
	return cls, nil
}

// standardizer computes per-feature mean and scale (stddev, or 1 for
// constant features).
func standardizer(x [][]float64) (mean, scale []float64) {
	dims := len(x[0])
	mean = make([]float64, dims)
	scale = make([]float64, dims)
	for _, row := range x {
		for j, v := range row {
			mean[j] += v
		}
	}
	for j := range mean {
		mean[j] /= float64(len(x))
	}
	for _, row := range x {
		for j, v := range row {
			d := v - mean[j]
			scale[j] += d * d
		}
	}
	for j := range scale {
		scale[j] = math.Sqrt(scale[j] / float64(len(x)))
		if scale[j] == 0 {
			scale[j] = 1
		}
	}
	return mean, scale
}

func (c *Classifier) standardize(row []float64) []float64 {
	out := make([]float64, len(row))
	for j := range row {
		if j >= len(c.mean) {
			break
		}
		out[j] = (row[j] - c.mean[j]) / c.scale[j]
	}
	return out
}

// trainBinary runs simplified SMO (Platt / CS229 variant) on ±1 labels.
func trainBinary(x [][]float64, y []float64, kernel Kernel, cfg Config) *binary {
	n := len(x)
	m := &binary{alphas: make([]float64, n), x: x, y: y}
	if n == 0 {
		return m
	}
	rng := rand.New(rand.NewSource(cfg.Seed + int64(n)))
	// Cache the kernel matrix: training sets here are small (hundreds of
	// requests), so O(n²) memory is the right trade.
	gram := make([][]float64, n)
	for i := range gram {
		gram[i] = make([]float64, n)
		for j := range gram[i] {
			gram[i][j] = kernel(x[i], x[j])
		}
	}
	// active lists the non-zero alphas' indices in ascending order, so f adds
	// the same terms in the same order as a scan of all n; most stay zero.
	var active []int
	f := func(i int) float64 {
		s := -m.b
		for _, k := range active {
			s += m.alphas[k] * y[k] * gram[k][i]
		}
		return s
	}

	passes, iters := 0, 0
	for passes < cfg.MaxPasses && iters < cfg.MaxIter {
		iters++
		changed := 0
		for i := 0; i < n; i++ {
			ei := f(i) - y[i]
			if !((y[i]*ei < -cfg.Tol && m.alphas[i] < cfg.C) || (y[i]*ei > cfg.Tol && m.alphas[i] > 0)) {
				continue
			}
			j := rng.Intn(n - 1)
			if j >= i {
				j++
			}
			ej := f(j) - y[j]
			ai, aj := m.alphas[i], m.alphas[j]
			var lo, hi float64
			if y[i] != y[j] {
				lo = math.Max(0, aj-ai)
				hi = math.Min(cfg.C, cfg.C+aj-ai)
			} else {
				lo = math.Max(0, ai+aj-cfg.C)
				hi = math.Min(cfg.C, ai+aj)
			}
			if lo == hi {
				continue
			}
			eta := 2*gram[i][j] - gram[i][i] - gram[j][j]
			if eta >= 0 {
				continue
			}
			ajNew := aj - y[j]*(ei-ej)/eta
			if ajNew > hi {
				ajNew = hi
			} else if ajNew < lo {
				ajNew = lo
			}
			if math.Abs(ajNew-aj) < 1e-5 {
				continue
			}
			aiNew := ai + y[i]*y[j]*(aj-ajNew)
			b1 := m.b + ei + y[i]*(aiNew-ai)*gram[i][i] + y[j]*(ajNew-aj)*gram[i][j]
			b2 := m.b + ej + y[i]*(aiNew-ai)*gram[i][j] + y[j]*(ajNew-aj)*gram[j][j]
			switch {
			case aiNew > 0 && aiNew < cfg.C:
				m.b = b1
			case ajNew > 0 && ajNew < cfg.C:
				m.b = b2
			default:
				m.b = (b1 + b2) / 2
			}
			m.alphas[i], m.alphas[j] = aiNew, ajNew
			changed++
			active = active[:0]
			for k, a := range m.alphas {
				if a != 0 {
					active = append(active, k)
				}
			}
		}
		if changed == 0 {
			passes++
		} else {
			passes = 0
		}
	}
	return m
}

// Predict returns the predicted class label for the feature vector.
func (c *Classifier) Predict(row []float64) int {
	label, _ := c.PredictScore(row)
	return label
}

// PredictScore returns the predicted label plus the per-class vote tally
// from the one-vs-one machines.
func (c *Classifier) PredictScore(row []float64) (int, map[int]float64) {
	x := c.standardize(row)
	votes := make(map[int]float64, len(c.classes))
	margins := make(map[int]float64, len(c.classes))
	for _, m := range c.machines {
		d := m.decision(c.kernel, x)
		if d >= 0 {
			votes[m.classA]++
			margins[m.classA] += d
		} else {
			votes[m.classB]++
			margins[m.classB] -= d
		}
	}
	best := c.classes[0]
	for _, cl := range c.classes[1:] {
		if votes[cl] > votes[best] ||
			(votes[cl] == votes[best] && margins[cl] > margins[best]) {
			best = cl
		}
	}
	return best, votes
}

// Classes returns the sorted class labels seen at training time.
func (c *Classifier) Classes() []int { return append([]int(nil), c.classes...) }

// NumMachines returns the number of pairwise binary machines.
func (c *Classifier) NumMachines() int { return len(c.machines) }
