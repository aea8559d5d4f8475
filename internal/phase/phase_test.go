package phase

import (
	"math/rand"
	"sync"
	"testing"

	"forecache/internal/tile"
	"forecache/internal/trace"
)

func TestFeaturesVector(t *testing.T) {
	r := trace.Request{Coord: tile.Coord{Level: 3, Y: 5, X: 7}, Move: trace.PanLeft}
	f := Features(r)
	want := []float64{7, 5, 3, 1, 0, 0}
	for i := range want {
		if f[i] != want[i] {
			t.Errorf("feature %s = %v, want %v", FeatureNames[i], f[i], want[i])
		}
	}
	r.Move = trace.ZoomInNE
	f = Features(r)
	if f[3] != 0 || f[4] != 1 || f[5] != 0 {
		t.Errorf("zoom-in flags = %v", f[3:])
	}
	r.Move = trace.ZoomOut
	f = Features(r)
	if f[5] != 1 {
		t.Errorf("zoom-out flag = %v", f[5])
	}
}

// ruleLabel is the fixture's ground truth on a 9-level pyramid: coarse
// levels are Foraging, pans at detailed levels Sensemaking, the rest
// Navigation.
func ruleLabel(r trace.Request) trace.Phase {
	switch {
	case r.Coord.Level <= 3:
		return trace.Foraging
	case r.Coord.Level >= 6 && (r.Move.IsPan() || r.Move == trace.None):
		return trace.Sensemaking
	default:
		return trace.Navigation
	}
}

// synthReqs builds a labeled request set whose phases follow ruleLabel, so
// a working classifier must reach high accuracy.
func synthReqs(n int, seed int64) []trace.Request {
	rng := rand.New(rand.NewSource(seed))
	moves := trace.AllMoves()
	var out []trace.Request
	for i := 0; i < n; i++ {
		level := rng.Intn(9)
		side := 1 << level
		r := trace.Request{
			Coord: tile.Coord{Level: level, Y: rng.Intn(side), X: rng.Intn(side)},
			Move:  moves[rng.Intn(len(moves))],
		}
		r.Phase = ruleLabel(r)
		out = append(out, r)
	}
	return out
}

func TestTrainPredictRoundTrip(t *testing.T) {
	reqs := synthReqs(400, 1)
	cls, err := Train(reqs, TrainConfig{})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	if acc := cls.Accuracy(reqs); acc < 0.8 {
		t.Errorf("training-set accuracy = %v, want >= 0.8", acc)
	}
}

func TestGeneralizationToHeldOut(t *testing.T) {
	train := synthReqs(600, 2)
	test := synthReqs(200, 3)
	cls, err := Train(train, TrainConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if acc := cls.Accuracy(test); acc < 0.7 {
		t.Errorf("held-out accuracy = %v, want >= 0.7", acc)
	}
}

func TestSingleFeatureClassifier(t *testing.T) {
	reqs := synthReqs(400, 4)
	// Zoom level alone (feature 2) separates the phases reasonably well —
	// Table 1 reports 0.696 for it, the best single feature.
	zoomOnly, err := Train(reqs, TrainConfig{Features: []int{2}})
	if err != nil {
		t.Fatal(err)
	}
	accZoom := zoomOnly.Accuracy(reqs)
	if accZoom < 0.55 {
		t.Errorf("zoom-only accuracy = %v, want >= 0.55", accZoom)
	}
	full, err := Train(reqs, TrainConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if accFull := full.Accuracy(reqs); accFull < accZoom {
		t.Errorf("full features (%v) should not underperform zoom-only (%v)", accFull, accZoom)
	}
}

func TestTrainErrors(t *testing.T) {
	if _, err := Train(nil, TrainConfig{}); err == nil {
		t.Error("no labeled requests should fail")
	}
	unlabeled := []trace.Request{{Coord: tile.Coord{Level: 1}}}
	if _, err := Train(unlabeled, TrainConfig{}); err == nil {
		t.Error("all-unlabeled requests should fail")
	}
	if _, err := Train(synthReqs(10, 1), TrainConfig{Features: []int{99}}); err == nil {
		t.Error("bad feature index should fail")
	}
}

func TestAccuracySkipsUnlabeled(t *testing.T) {
	reqs := synthReqs(100, 5)
	cls, err := Train(reqs, TrainConfig{})
	if err != nil {
		t.Fatal(err)
	}
	mixed := append([]trace.Request{{Coord: tile.Coord{Level: 0}}}, reqs...) // first has PhaseUnknown
	if cls.Accuracy(mixed) == 0 {
		t.Error("unlabeled request should be skipped, not zero the accuracy")
	}
	if cls.Accuracy(nil) != 0 {
		t.Error("empty evaluation set should score 0")
	}
}

func TestRequestsFlattens(t *testing.T) {
	traces := []*trace.Trace{
		{Requests: make([]trace.Request, 3)},
		{Requests: make([]trace.Request, 2)},
	}
	if got := len(Requests(traces)); got != 5 {
		t.Errorf("Requests = %d, want 5", got)
	}
}

func BenchmarkTrainPhaseClassifier(b *testing.B) {
	reqs := synthReqs(500, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Train(reqs, TrainConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestClassifierConcurrentTable: eight goroutines ask one shared classifier
// for every tile and move its table covers, and for tiles it does not, each
// in its own order; every answer must equal the SVM's on an untouched twin.
func TestClassifierConcurrentTable(t *testing.T) {
	var reqs []trace.Request
	for _, r := range synthReqs(600, 6) {
		if r.Coord.Level <= 5 {
			reqs = append(reqs, r)
		}
	}
	shared, err := Train(reqs, TrainConfig{})
	if err != nil {
		t.Fatal(err)
	}
	twin, err := Train(reqs, TrainConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(shared.table), tile.Index(tile.Coord{Level: 6}); got != want {
		t.Fatalf("table has %d words, want %d: one per tile of the trained levels", got, want)
	}
	moves := append([]trace.Move{trace.None}, trace.AllMoves()...)
	var in []trace.Request
	add := func(c tile.Coord) {
		for _, mv := range moves {
			in = append(in, trace.Request{Coord: c, Move: mv})
		}
	}
	for l := range 6 {
		for y := range 1 << l {
			for x := range 1 << l {
				add(tile.Coord{Level: l, Y: y, X: x})
			}
		}
	}
	// Outside the table: computed each time, never stored.
	for x := range 64 {
		add(tile.Coord{Level: 6, X: x})
	}
	add(tile.Coord{Level: 2, Y: -1})
	add(tile.Coord{Level: 2, X: 4})
	add(tile.Coord{Level: -1})
	want := make([]trace.Phase, len(in))
	for i, r := range in {
		want[i] = twin.fill(r)
	}

	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, i := range rand.New(rand.NewSource(int64(g))).Perm(len(in)) {
				if got := shared.Predict(in[i]); got != want[i] {
					t.Errorf("goroutine %d: Predict(%v, %v) = %v, twin's SVM says %v", g, in[i].Coord, in[i].Move, got, want[i])
				}
			}
		}()
	}
	wg.Wait()
}
