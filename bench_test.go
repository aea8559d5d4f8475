package forecache

// One testing.B benchmark per table and figure of the paper's evaluation,
// so `go test -bench=.` regenerates every experiment end to end (on a
// smaller world than `forecache bench`, to keep iterations affordable).
// The printed artifacts themselves come from cmd/forecache bench; these
// benchmarks measure the cost of producing them and assert they still run.

import (
	"io"
	"testing"

	"forecache/internal/backend"
	"forecache/internal/eval"
	"forecache/internal/phase"
	"forecache/internal/prefetch"
	"forecache/internal/sig"
	"forecache/internal/trace"
)

// benchHarness returns a harness over the shared test world, restricted to
// the first n users to bound fold counts.
func benchHarness(b *testing.B, users int) *eval.Harness {
	ds, traces := testWorld(b)
	var subset []*Trace
	for _, tr := range traces {
		if tr.User < users {
			subset = append(subset, tr)
		}
	}
	h := ds.Harness(subset)
	h.MaxTrainRequests = 300
	return h
}

func BenchmarkTable1PhaseFeatures(b *testing.B) {
	h := benchHarness(b, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, features := range [][]int{{2}, nil} { // zoom-only and all six
			if _, err := h.EvalPhaseLOO(features, "bench"); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkFig8MoveAndPhaseDistributions(b *testing.B) {
	h := benchHarness(b, 18)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eval.RenderFig8(io.Discard, h.Traces)
		eval.RenderFig8Users(io.Discard, h.Traces)
	}
}

func BenchmarkFig9ZoomProfile(b *testing.B) {
	h := benchHarness(b, 18)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eval.RenderFig9(io.Discard, h.Traces[0], h.Pyr.NumLevels())
	}
}

func BenchmarkFig10aActionModels(b *testing.B) {
	h := benchHarness(b, 6)
	ks := []int{1, 5, 8}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := h.EvalModelLOO("markov3", eval.ABFactory(3), ks); err != nil {
			b.Fatal(err)
		}
		if _, err := h.EvalModelLOO("momentum", eval.MomentumFactory(), ks); err != nil {
			b.Fatal(err)
		}
		if _, err := h.EvalModelLOO("hotspot", eval.HotspotFactory(8, 3), ks); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10bSignatures(b *testing.B) {
	h := benchHarness(b, 6)
	ks := []int{1, 5, 8}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, s := range sig.AllNames() {
			if _, err := h.EvalModelLOO("sb:"+s, h.SBFactory(s), ks); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkFig10cHybridVsBest(b *testing.B) {
	h := benchHarness(b, 4)
	ks := []int{1, 5}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := h.EvalHybridLOO(eval.HybridSpec{}, ks); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig11HybridVsExisting(b *testing.B) {
	h := benchHarness(b, 4)
	ks := []int{5}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := h.EvalHybridLOO(eval.HybridSpec{}, ks); err != nil {
			b.Fatal(err)
		}
		if _, err := h.EvalModelLOO("momentum", eval.MomentumFactory(), ks); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig12LatencyRegression(b *testing.B) {
	h := benchHarness(b, 3)
	lm := backend.DefaultLatency()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runs, err := h.RunEngineLOO("momentum",
			eval.SingleEngineSetup(eval.MomentumFactory()), []int{1, 5}, lm)
		if err != nil {
			b.Fatal(err)
		}
		eval.RenderFig12(io.Discard, runs)
	}
}

func BenchmarkFig13ResponseTimes(b *testing.B) {
	h := benchHarness(b, 3)
	lm := backend.DefaultLatency()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := h.RunEngineLOO("hybrid",
			h.HybridEngineSetup(eval.HybridSpec{}), []int{5}, lm); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMarkovOrderSweep(b *testing.B) {
	h := benchHarness(b, 6)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for n := 2; n <= 5; n++ {
			if _, err := h.EvalModelLOO("ab", eval.ABFactory(n), []int{5}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkAblationAllocationPolicies(b *testing.B) {
	h := benchHarness(b, 3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := h.EvalHybridLOO(eval.HybridSpec{Name: "orig", OriginalTable: true}, []int{5}); err != nil {
			b.Fatal(err)
		}
	}
}

// Component-level benchmarks: the pieces the per-request path is made of.

func BenchmarkWorldBuild(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := BuildWorld(WorldConfig{Seed: 1, Size: 128, TileSize: 16}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStudySimulation(b *testing.B) {
	ds, _ := testWorld(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ds.SimulateStudy(int64(i))
	}
}

func BenchmarkMiddlewareRequestPath(b *testing.B) {
	ds, traces := testWorld(b)
	mw, err := ds.NewMiddleware(traces, MiddlewareConfig{K: 5})
	if err != nil {
		b.Fatal(err)
	}
	walk := []Coord{{}, {Level: 1, Y: 0, X: 0}, {Level: 2, Y: 0, X: 0}, {Level: 1, Y: 0, X: 0}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mw.Reset()
		for _, c := range walk {
			if _, err := mw.Request(c); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkPhaseClassifierTraining(b *testing.B) {
	_, traces := testWorld(b)
	reqs := phase.Requests(traces)
	if len(reqs) > 400 {
		reqs = reqs[:400]
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := phase.Train(reqs, phase.TrainConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTraceSerialization(b *testing.B) {
	_, traces := testWorld(b)
	dir := b.TempDir()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := trace.SaveDir(dir, traces[:6]); err != nil {
			b.Fatal(err)
		}
		if _, err := trace.LoadDir(dir); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScheduler(b *testing.B) {
	ds, _ := testWorld(b)
	db := backend.NewDBMS(ds.Pyramid, backend.DefaultLatency(), nil)
	sched := prefetch.NewScheduler(db, prefetch.Config{Workers: 8, QueuePerSession: 64})
	defer sched.Close()
	// Four sessions repeatedly submit overlapping 8-tile batches — the
	// multi-user shape the scheduler exists for (fairness + coalescing).
	const sessions = 4
	batches := make([][]prefetch.Request, sessions)
	for s := range batches {
		for i := 0; i < 8; i++ {
			c := Coord{Level: 3, Y: (s + i) % 8, X: i}
			batches[s] = append(batches[s], prefetch.Request{Coord: c, Score: float64(i)})
		}
	}
	ids := []string{"s0", "s1", "s2", "s3"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for s := range batches {
			sched.Submit(ids[s], batches[s])
		}
		sched.Drain()
	}
}
