package svm

import (
	"math"
	"math/rand"
	"testing"
)

func TestTrainRejectsBadInput(t *testing.T) {
	if _, err := Train(nil, nil); err == nil {
		t.Error("empty training set should fail")
	}
	if _, err := Train([][]float64{{1}}, []int{0, 1}); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, err := Train([][]float64{{1}, {2, 3}}, []int{0, 1}); err == nil {
		t.Error("ragged rows should fail")
	}
	if _, err := Train([][]float64{{1}, {2}}, []int{0, 0}); err == nil {
		t.Error("single class should fail")
	}
}

func TestLinearlySeparable(t *testing.T) {
	var x [][]float64
	var y []int
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 40; i++ {
		x = append(x, []float64{rng.Float64() + 2, rng.Float64() + 2})
		y = append(y, 1)
		x = append(x, []float64{rng.Float64() - 3, rng.Float64() - 3})
		y = append(y, 0)
	}
	cls, err := Train(x, y)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	correct := 0
	for i := range x {
		if cls.Predict(x[i]) == y[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(x)); acc < 0.95 {
		t.Errorf("training accuracy = %v, want >= 0.95", acc)
	}
	if cls.Predict([]float64{3, 3}) != 1 || cls.Predict([]float64{-4, -4}) != 0 {
		t.Error("misclassifies far-field points")
	}
}

func TestXORNeedsRBF(t *testing.T) {
	// XOR is not linearly separable; the RBF kernel must solve it.
	var x [][]float64
	var y []int
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 30; i++ {
		for _, q := range [][3]float64{{0, 0, 0}, {1, 1, 0}, {0, 1, 1}, {1, 0, 1}} {
			x = append(x, []float64{q[0] + 0.08*rng.NormFloat64(), q[1] + 0.08*rng.NormFloat64()})
			y = append(y, int(q[2]))
		}
	}
	cls, err := Train(x, y)
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i := range x {
		if cls.Predict(x[i]) == y[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(x)); acc < 0.9 {
		t.Errorf("XOR accuracy = %v, want >= 0.9", acc)
	}
}

func TestThreeClassesOneVsOne(t *testing.T) {
	var x [][]float64
	var y []int
	rng := rand.New(rand.NewSource(5))
	centers := [][2]float64{{0, 0}, {5, 0}, {0, 5}}
	for c, ctr := range centers {
		for i := 0; i < 30; i++ {
			x = append(x, []float64{ctr[0] + 0.4*rng.NormFloat64(), ctr[1] + 0.4*rng.NormFloat64()})
			y = append(y, c)
		}
	}
	cls, err := Train(x, y)
	if err != nil {
		t.Fatal(err)
	}
	for c, ctr := range centers {
		got, votes := cls.PredictScore([]float64{ctr[0], ctr[1]})
		if got != c {
			t.Errorf("center %v predicted as %d, want %d", ctr, got, c)
		}
		// One machine per pair of the three classes, each casting one vote
		// for one of the pair's labels.
		total := 0.0
		for label, v := range votes {
			if label < 0 || label > 2 {
				t.Errorf("vote for unseen class %d", label)
			}
			total += v
		}
		if total != 3 {
			t.Errorf("center %v: %v votes cast, want 3 (one per pair)", ctr, total)
		}
	}
}

func TestPredictScoreVotes(t *testing.T) {
	x := [][]float64{{0, 0}, {0, 0.2}, {5, 5}, {5, 5.2}, {-5, 5}, {-5, 5.2}}
	y := []int{0, 0, 1, 1, 2, 2}
	cls, err := Train(x, y)
	if err != nil {
		t.Fatal(err)
	}
	label, votes := cls.PredictScore([]float64{5, 5})
	if label != 1 {
		t.Errorf("label = %d, want 1", label)
	}
	total := 0.0
	for _, v := range votes {
		total += v
	}
	if total != 3 { // 3 pairwise machines each cast one vote
		t.Errorf("total votes = %v, want 3", total)
	}
}

func TestStandardizationHandlesConstantFeature(t *testing.T) {
	// Second feature is constant; scale must not divide by zero.
	x := [][]float64{{0, 7}, {0.1, 7}, {5, 7}, {5.1, 7}}
	y := []int{0, 0, 1, 1}
	cls, err := Train(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if got := cls.Predict([]float64{5, 7}); got != 1 {
		t.Errorf("Predict = %d, want 1", got)
	}
	for _, v := range cls.standardize([]float64{1, 7}) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("standardize produced %v", v)
		}
	}
}

func TestDeterministicTraining(t *testing.T) {
	x := [][]float64{{0, 0}, {1, 0}, {0, 1}, {4, 4}, {5, 4}, {4, 5}}
	y := []int{0, 0, 0, 1, 1, 1}
	a, err := Train(x, y)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(x, y)
	if err != nil {
		t.Fatal(err)
	}
	probe := []float64{2.4, 2.6}
	la, va := a.PredictScore(probe)
	lb, vb := b.PredictScore(probe)
	if la != lb {
		t.Fatal("labels differ across identical training runs")
	}
	for k, v := range va {
		if vb[k] != v {
			t.Fatal("votes differ across identical training runs")
		}
	}
}

// TestTrainBinaryMatchesFullScan: summing f over the ascending list of
// non-zero alphas adds the same terms in the same order as scanning all of
// them, so training is bit-identical — every alpha and the bias compare
// with ==, on overlapping classes that leave many alphas at a bound and
// move others back to zero.
func TestTrainBinaryMatchesFullScan(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		var x [][]float64
		var y []float64
		for i := 0; i < 120; i++ {
			label := float64(1 - 2*(i%2))
			x = append(x, []float64{rng.NormFloat64() + 0.6*label, rng.NormFloat64() - 0.4*label, rng.Float64()})
			y = append(y, label)
		}
		got := trainBinary(x, y, RBF(1.0/3))
		want := trainBinaryFullScan(x, y, RBF(1.0/3))
		if got.b != want.b {
			t.Errorf("seed %d: b = %v, full scan %v", seed, got.b, want.b)
		}
		support := 0
		for i := range want.alphas {
			if got.alphas[i] != want.alphas[i] {
				t.Fatalf("seed %d: alpha[%d] = %v, full scan %v", seed, i, got.alphas[i], want.alphas[i])
			}
			if want.alphas[i] != 0 {
				support++
			}
		}
		if support == 0 || support == len(want.alphas) {
			t.Errorf("seed %d: %d of %d alphas non-zero: the set does not exercise the skip", seed, support, len(want.alphas))
		}
	}
}

// trainBinaryFullScan is trainBinary as it was before f kept an active
// set: f walks all n alphas on every call. It is the reference
// TestTrainBinaryMatchesFullScan holds the shipped trainer to.
func trainBinaryFullScan(x [][]float64, y []float64, kernel Kernel) *binary {
	n := len(x)
	m := &binary{alphas: make([]float64, n), x: x, y: y}
	if n == 0 {
		return m
	}
	rng := rand.New(rand.NewSource(int64(n)))
	// Cache the kernel matrix: training sets here are small (hundreds of
	// requests), so O(n²) memory is the right trade.
	gram := make([][]float64, n)
	for i := range gram {
		gram[i] = make([]float64, n)
		for j := range gram[i] {
			gram[i][j] = kernel(x[i], x[j])
		}
	}
	f := func(i int) float64 {
		s := -m.b
		for k := 0; k < n; k++ {
			if m.alphas[k] != 0 {
				s += m.alphas[k] * y[k] * gram[k][i]
			}
		}
		return s
	}

	passes, iters := 0, 0
	for passes < maxPasses && iters < maxIter {
		iters++
		changed := 0
		for i := 0; i < n; i++ {
			ei := f(i) - y[i]
			if !((y[i]*ei < -tol && m.alphas[i] < penalty) || (y[i]*ei > tol && m.alphas[i] > 0)) {
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
				hi = math.Min(penalty, penalty+aj-ai)
			} else {
				lo = math.Max(0, ai+aj-penalty)
				hi = math.Min(penalty, ai+aj)
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
			case aiNew > 0 && aiNew < penalty:
				m.b = b1
			case ajNew > 0 && ajNew < penalty:
				m.b = b2
			default:
				m.b = (b1 + b2) / 2
			}
			m.alphas[i], m.alphas[j] = aiNew, ajNew
			changed++
		}
		if changed == 0 {
			passes++
		} else {
			passes = 0
		}
	}
	return m
}

func TestKernels(t *testing.T) {
	rbf := RBF(1)
	if got := rbf([]float64{1, 1}, []float64{1, 1}); got != 1 {
		t.Errorf("rbf self = %v, want 1", got)
	}
	if got := rbf([]float64{0, 0}, []float64{10, 10}); got > 1e-10 {
		t.Errorf("rbf far = %v, want near 0", got)
	}
}

func BenchmarkTrain3Class(b *testing.B) {
	var x [][]float64
	var y []int
	rng := rand.New(rand.NewSource(5))
	for c := 0; c < 3; c++ {
		for i := 0; i < 50; i++ {
			x = append(x, []float64{float64(c)*4 + rng.NormFloat64(), rng.NormFloat64()})
			y = append(y, c)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Train(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPredict(b *testing.B) {
	var x [][]float64
	var y []int
	rng := rand.New(rand.NewSource(5))
	for c := 0; c < 3; c++ {
		for i := 0; i < 50; i++ {
			x = append(x, []float64{float64(c)*4 + rng.NormFloat64(), rng.NormFloat64()})
			y = append(y, c)
		}
	}
	cls, err := Train(x, y)
	if err != nil {
		b.Fatal(err)
	}
	probe := []float64{4, 0}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cls.Predict(probe)
	}
}
