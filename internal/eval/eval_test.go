package eval

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"forecache/internal/array"
	"forecache/internal/backend"
	"forecache/internal/modis"
	"forecache/internal/sig"
	"forecache/internal/study"
	"forecache/internal/tile"
	"forecache/internal/trace"
)

var (
	fixOnce   sync.Once
	fixPyr    *tile.Pyramid
	fixTraces []*trace.Trace
)

// fixture builds a small signed-up world + study traces shared by all
// eval tests: 256-cell raw grid, 5 zoom levels, full signatures, 54 traces.
func fixture(t testing.TB) (*tile.Pyramid, []*trace.Trace) {
	fixOnce.Do(func() {
		ndsi, err := modis.BuildWorld(42, 256)
		if err != nil {
			t.Fatalf("BuildWorld: %v", err)
		}
		pyr, err := tile.Build(ndsi, tile.Params{TileSize: 16, Agg: array.AggAvg})
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		comp := sig.NewComputer(sig.DefaultConfig("ndsi_avg"))
		comp.TrainCodebook(pyr.SampleTiles(60))
		pyr.ComputeMetadata(comp.Compute)
		fixPyr = pyr
		fixTraces = study.NewSimulator(pyr, "ndsi_avg").RunStudy(7)
	})
	if fixPyr == nil {
		t.Fatal("fixture unavailable")
	}
	return fixPyr, fixTraces
}

func harness(t testing.TB) *Harness {
	pyr, traces := fixture(t)
	return &Harness{Pyr: pyr, Attr: "ndsi_avg", Traces: traces, MaxTrainRequests: 400}
}

// subsetUsers keeps only traces from the first n users, shrinking LOO folds
// for expensive tests.
func subsetUsers(traces []*trace.Trace, n int) []*trace.Trace {
	var out []*trace.Trace
	for _, tr := range traces {
		if tr.User < n {
			out = append(out, tr)
		}
	}
	return out
}

func TestTableAccumulateAndMerge(t *testing.T) {
	a := NewTable()
	a.Add("m", 2, trace.Navigation, true)
	a.Add("m", 2, trace.Navigation, false)
	p := a.Get("m", 2, trace.Navigation)
	if p.Hits != 1 || p.Total != 2 || p.Accuracy() != 0.5 {
		t.Errorf("point = %+v", p)
	}
	// Overall row accumulates automatically.
	if o := a.Get("m", 2, trace.PhaseUnknown); o.Total != 2 {
		t.Errorf("overall = %+v", o)
	}
	b := NewTable()
	b.Add("m", 2, trace.Navigation, true)
	a.Merge(b)
	if got := a.Get("m", 2, trace.Navigation); got.Hits != 2 || got.Total != 3 {
		t.Errorf("merged = %+v", got)
	}
	if len(a.Points()) == 0 {
		t.Error("Points should list cells")
	}
	if empty := a.Get("x", 1, trace.Foraging); empty.Accuracy() != 0 {
		t.Error("missing cell should score 0")
	}
}

func TestFitKnownLine(t *testing.T) {
	x := []float64{0, 1, 2, 3}
	y := []float64{961.33, 951.94, 942.55, 933.16} // 961.33 - 9.39x
	reg := Fit(x, y)
	if math.Abs(reg.Slope+9.39) > 1e-9 || math.Abs(reg.Intercept-961.33) > 1e-9 {
		t.Errorf("fit = %+v", reg)
	}
	if math.Abs(reg.R2-1) > 1e-12 {
		t.Errorf("R2 = %v", reg.R2)
	}
	if r := Fit([]float64{1}, []float64{2}); r.N != 1 || r.Slope != 0 {
		t.Errorf("degenerate fit = %+v", r)
	}
	if r := Fit([]float64{2, 2}, []float64{1, 3}); r.Slope != 0 {
		t.Errorf("vertical fit = %+v", r)
	}
}

func TestLatencyConversion(t *testing.T) {
	lm := backend.DefaultLatency()
	if got := Latency(1, lm); got != lm.Hit {
		t.Errorf("perfect accuracy latency = %v", got)
	}
	if got := Latency(0, lm); got != lm.Miss {
		t.Errorf("zero accuracy latency = %v", got)
	}
	mid := Latency(0.5, lm)
	if mid <= lm.Hit || mid >= lm.Miss {
		t.Errorf("mid latency = %v", mid)
	}
}

func TestEvalMomentumLOO(t *testing.T) {
	h := harness(t)
	ks := []int{1, 2, 4, 8}
	table, err := h.EvalModelLOO("momentum", MomentumFactory(), ks)
	if err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	for _, k := range ks {
		p := table.Get("momentum", k, trace.PhaseUnknown)
		if p.Total == 0 {
			t.Fatalf("k=%d has no measurements", k)
		}
		acc := p.Accuracy()
		if acc < 0 || acc > 1 {
			t.Fatalf("accuracy %v outside [0,1]", acc)
		}
		// Accuracy is monotone in k: the top-k list only grows.
		if acc < prev-1e-12 {
			t.Fatalf("accuracy not monotone in k: %v after %v", acc, prev)
		}
		prev = acc
	}
}

// The core Figure 10a claim: the trained Markov3 AB model beats Momentum
// and Hotspot in the Navigation phase.
func TestABBeatsBaselinesInNavigation(t *testing.T) {
	h := harness(t)
	ks := []int{1, 3, 5}
	ab, err := h.EvalModelLOO("markov3", ABFactory(3), ks)
	if err != nil {
		t.Fatal(err)
	}
	mom, err := h.EvalModelLOO("momentum", MomentumFactory(), ks)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range ks {
		abAcc := ab.Get("markov3", k, trace.Navigation).Accuracy()
		momAcc := mom.Get("momentum", k, trace.Navigation).Accuracy()
		if abAcc < momAcc {
			t.Errorf("k=%d: markov3 navigation %.3f below momentum %.3f", k, abAcc, momAcc)
		}
	}
}

// The Figure 10b claim that matters downstream: the SB model with SIFT
// predicts Sensemaking pans better than chance and the signature set runs.
func TestSBSignaturesEvaluate(t *testing.T) {
	h := harness(t)
	ks := []int{2, 4}
	for _, name := range sig.AllNames() {
		table, err := h.EvalModelLOO("sb:"+name, h.SBFactory(name), ks)
		if err != nil {
			t.Fatalf("sb:%s: %v", name, err)
		}
		p := table.Get("sb:"+name, 4, trace.Sensemaking)
		if p.Total == 0 {
			t.Fatalf("sb:%s has no sensemaking measurements", name)
		}
		if acc := p.Accuracy(); acc <= 0 {
			t.Errorf("sb:%s sensemaking accuracy = %v, want > 0", name, acc)
		}
	}
}

func TestEvalPhaseLOO(t *testing.T) {
	h := harness(t)
	h.Traces = subsetUsers(h.Traces, 6)
	res, err := h.EvalPhaseLOO(nil, "all features")
	if err != nil {
		t.Fatal(err)
	}
	if res.Total == 0 {
		t.Fatal("no phase measurements")
	}
	if acc := res.Accuracy(); acc < 0.6 {
		t.Errorf("phase LOO accuracy = %.3f, want >= 0.6 (paper: 0.82)", acc)
	}
	zoom, err := h.EvalPhaseLOO([]int{2}, "zoom level")
	if err != nil {
		t.Fatal(err)
	}
	// A single feature has a much lower ceiling (at the detail level the
	// zoom level cannot separate Sensemaking pans from Navigation zooms);
	// the full vector must beat it.
	if zoom.Accuracy() <= 0.2 {
		t.Errorf("zoom-only accuracy = %.3f, want nontrivial", zoom.Accuracy())
	}
	if res.Accuracy() < zoom.Accuracy() {
		t.Errorf("full features (%.3f) should beat zoom-only (%.3f)", res.Accuracy(), zoom.Accuracy())
	}
}

func TestEvalHybridLOO(t *testing.T) {
	h := harness(t)
	h.Traces = subsetUsers(h.Traces, 6)
	ks := []int{1, 5}
	hyb, err := h.EvalHybridLOO(HybridSpec{}, ks)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range ks {
		p := hyb.Get("hybrid", k, trace.PhaseUnknown)
		if p.Total == 0 {
			t.Fatalf("hybrid k=%d unmeasured", k)
		}
	}
	// Larger k must not hurt.
	if hyb.Get("hybrid", 5, trace.PhaseUnknown).Accuracy() <
		hyb.Get("hybrid", 1, trace.PhaseUnknown).Accuracy()-1e-12 {
		t.Error("hybrid accuracy should be monotone in k")
	}
}

func TestHybridOraclePhases(t *testing.T) {
	h := harness(t)
	h.Traces = subsetUsers(h.Traces, 4)
	hyb, err := h.EvalHybridLOO(HybridSpec{Name: "oracle", OraclePhases: true}, []int{4})
	if err != nil {
		t.Fatal(err)
	}
	if hyb.Get("oracle", 4, trace.PhaseUnknown).Total == 0 {
		t.Fatal("oracle hybrid unmeasured")
	}
}

func TestRunEngineLOO(t *testing.T) {
	h := harness(t)
	h.Traces = subsetUsers(h.Traces, 4)
	lm := backend.DefaultLatency()
	runs, err := h.RunEngineLOO("momentum", SingleEngineSetup(MomentumFactory()), []int{1, 4}, lm)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 {
		t.Fatalf("runs = %d", len(runs))
	}
	for _, r := range runs {
		if r.Requests == 0 {
			t.Fatalf("k=%d replayed no requests", r.K)
		}
		if r.HitRate < 0 || r.HitRate > 1 {
			t.Fatalf("hit rate %v", r.HitRate)
		}
		if r.AvgLatency < lm.Hit || r.AvgLatency > lm.Miss {
			t.Fatalf("avg latency %v outside [hit, miss]", r.AvgLatency)
		}
		// The engine's average latency must equal the accuracy-latency
		// line of Figure 12 by construction.
		want := Latency(r.HitRate, lm)
		if diff := r.AvgLatency - want; diff > time.Millisecond || diff < -time.Millisecond {
			t.Errorf("latency %v deviates from line %v", r.AvgLatency, want)
		}
	}
	if runs[1].HitRate < runs[0].HitRate-1e-12 {
		t.Error("hit rate should not shrink with larger k")
	}
}

func TestRenderers(t *testing.T) {
	h := harness(t)
	var buf bytes.Buffer

	RenderTable1(&buf, []PhaseResult{{Label: "zoom", Correct: 7, Total: 10}})
	if !strings.Contains(buf.String(), "0.700") {
		t.Error("Table1 missing accuracy")
	}

	buf.Reset()
	RenderFig8(&buf, h.Traces)
	if !strings.Contains(buf.String(), "task") {
		t.Error("Fig8 output empty")
	}

	buf.Reset()
	RenderFig8Users(&buf, h.Traces)
	if !strings.Contains(buf.String(), "user") {
		t.Error("Fig8Users output empty")
	}

	buf.Reset()
	RenderFig9(&buf, h.Traces[0], h.Pyr.NumLevels())
	if !strings.Contains(buf.String(), "L0") {
		t.Error("Fig9 output missing level rows")
	}

	buf.Reset()
	tbl := NewTable()
	tbl.Add("m", 1, trace.Foraging, true)
	RenderAccuracyByPhase(&buf, "Figure X", tbl, []string{"m"}, []int{1})
	if !strings.Contains(buf.String(), "Foraging") {
		t.Error("accuracy renderer missing phases")
	}

	buf.Reset()
	runs := []EngineRun{
		{Model: "a", K: 1, HitRate: 0.2, AvgLatency: Latency(0.2, backend.DefaultLatency())},
		{Model: "a", K: 2, HitRate: 0.6, AvgLatency: Latency(0.6, backend.DefaultLatency())},
	}
	reg := RenderFig12(&buf, runs)
	if reg.N != 2 || !strings.Contains(buf.String(), "linear fit") {
		t.Errorf("Fig12 = %+v", reg)
	}
	// The constructed points sit exactly on the latency line.
	if math.Abs(reg.Slope-(-9.645)) > 0.01 {
		t.Errorf("slope = %v, want about -9.645 ms per accuracy %%", reg.Slope)
	}

	buf.Reset()
	RenderFig13(&buf, runs, []string{"a"}, []int{1, 2})
	if !strings.Contains(buf.String(), "k") {
		t.Error("Fig13 empty")
	}

	buf.Reset()
	RenderHeadline(&buf, runs[1], runs[0], runs[0], backend.DefaultLatency().Miss)
	if !strings.Contains(buf.String(), "improvement") {
		t.Error("headline missing improvements")
	}
}

func BenchmarkEvalMomentumLOO(b *testing.B) {
	h := harness(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.EvalModelLOO("momentum", MomentumFactory(), []int{5}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestHybridSpecPolicies pins the allocation tables HybridEngineSetup
// builds against the paper's rules written out independently: §5.4.3 (the
// first min(k, ABFirst) slots to AB outside Sensemaking, SB the rest and
// all of Sensemaking) for the default and every ABFirst, and the §4.4
// original table — every phase and k = 1..8.
func TestHybridSpecPolicies(t *testing.T) {
	tuned := func(abFirst int) func(trace.Phase, int) int {
		return func(ph trace.Phase, k int) int {
			if ph == trace.Sensemaking {
				return 0
			}
			return min(k, abFirst)
		}
	}
	original := func(ph trace.Phase, k int) int {
		switch ph {
		case trace.Navigation:
			return k
		case trace.Sensemaking:
			return 0
		default: // Foraging: equal split, AB gets the odd slot
			return (k + 1) / 2
		}
	}
	type tc struct {
		name   string
		spec   HybridSpec
		wantAB func(trace.Phase, int) int
	}
	cases := []tc{
		{"default", HybridSpec{}, tuned(4)},
		{"original", HybridSpec{OriginalTable: true}, original},
	}
	for first := 1; first <= 8; first++ {
		cases = append(cases, tc{fmt.Sprintf("abfirst=%d", first), HybridSpec{ABFirst: first}, tuned(first)})
	}
	h := harness(t)
	h.withDefaults()
	train := subsetUsers(h.Traces, 2)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			models, policy, _, err := h.HybridEngineSetup(c.spec)(fold{train: train})
			if err != nil {
				t.Fatal(err)
			}
			ab, sb := models[0].Name(), models[1].Name()
			for _, ph := range append(trace.AllPhases(), trace.PhaseUnknown) {
				for k := 1; k <= 8; k++ {
					got := policy.Allocations(ph, k)
					wantAB := c.wantAB(ph, k)
					if got[ab] != wantAB || got[sb] != k-wantAB || got[ab]+got[sb] != k {
						t.Fatalf("phase %v k=%d: %v, want %s=%d %s=%d", ph, k, got, ab, wantAB, sb, k-wantAB)
					}
				}
			}
		})
	}
}
