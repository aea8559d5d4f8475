package study

import (
	"sync"
	"testing"

	"forecache/internal/modis"
	"forecache/internal/tile"
	"forecache/internal/trace"
)

var (
	pyrOnce sync.Once
	pyrMem  *tile.Pyramid
)

// worldPyramid builds a small study world once and shares it across tests.
func worldPyramid(t *testing.T) *tile.Pyramid {
	t.Helper()
	pyrOnce.Do(func() {
		ndsi, err := modis.BuildWorld(42, 256)
		if err != nil {
			t.Fatalf("BuildWorld: %v", err)
		}
		pyrMem, err = tile.Build(&tile.Grid{Rows: 256, Cols: 256, Attrs: modis.Attrs, Data: ndsi}, 16)
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
	})
	if pyrMem == nil {
		t.Fatal("world pyramid unavailable")
	}
	return pyrMem
}

func TestTasksCalibration(t *testing.T) {
	pyr := worldPyramid(t)
	tasks := Tasks(pyr, "ndsi_avg")
	if len(tasks) != 3 {
		t.Fatalf("tasks = %d, want 3", len(tasks))
	}
	for _, task := range tasks {
		if task.TargetLevel < 1 || task.TargetLevel >= pyr.NumLevels() {
			t.Errorf("task %d target level %d outside pyramid", task.ID, task.TargetLevel)
		}
		if task.NumTargets != 4 {
			t.Errorf("task %d targets = %d, want 4 (paper)", task.ID, task.NumTargets)
		}
		// The calibrated threshold must be attainable by at least
		// NumTargets tiles in the region.
		qualifying := 0
		side := pyr.Side(task.TargetLevel)
		for y := 0; y < side; y++ {
			for x := 0; x < side; x++ {
				c := tile.Coord{Level: task.TargetLevel, Y: y, X: x}
				if regionOverlap(c, task.Region) <= 0 {
					continue
				}
				if m, ok := tileMean(pyr, "ndsi_avg", c); ok && m >= task.Threshold {
					qualifying++
				}
			}
		}
		if qualifying < task.NumTargets {
			t.Errorf("task %d: only %d qualifying tiles for threshold %.3f",
				task.ID, qualifying, task.Threshold)
		}
	}
}

func TestRegionOverlap(t *testing.T) {
	region := [4]float64{0, 0, 0.5, 0.5}
	full := tile.Coord{Level: 2, Y: 0, X: 0} // covers [0,0.25)x[0,0.25)
	if ov := regionOverlap(full, region); ov != 1 {
		t.Errorf("contained tile overlap = %v, want 1", ov)
	}
	outside := tile.Coord{Level: 2, Y: 3, X: 3}
	if ov := regionOverlap(outside, region); ov != 0 {
		t.Errorf("outside tile overlap = %v, want 0", ov)
	}
	root := tile.Coord{Level: 0, Y: 0, X: 0}
	if ov := regionOverlap(root, region); ov != 0.25 {
		t.Errorf("root overlap = %v, want 0.25", ov)
	}
}

func TestRunStudyShape(t *testing.T) {
	pyr := worldPyramid(t)
	sim := NewSimulator(pyr, "ndsi_avg")
	traces := sim.RunStudy(7)
	if len(traces) != NumUsers*3 {
		t.Fatalf("traces = %d, want %d", len(traces), NumUsers*3)
	}
	for _, tr := range traces {
		if len(tr.Requests) < 5 {
			t.Errorf("user %d task %d: only %d requests", tr.User, tr.Task, len(tr.Requests))
		}
		first := tr.Requests[0]
		if first.Move != trace.None || first.Coord != (tile.Coord{}) {
			t.Errorf("trace must start at the root with no move, got %+v", first)
		}
	}
}

// Every consecutive request pair must be connected by the recorded move —
// the paper's "no jumping" interface rule (§2.2).
func TestTracesAreIncremental(t *testing.T) {
	pyr := worldPyramid(t)
	sim := NewSimulator(pyr, "ndsi_avg")
	for _, tr := range sim.RunStudy(11) {
		for i := 1; i < len(tr.Requests); i++ {
			prev, cur := tr.Requests[i-1], tr.Requests[i]
			if cur.Move == trace.None {
				t.Fatalf("user %d task %d req %d: None move mid-trace", tr.User, tr.Task, i)
			}
			if got := trace.Apply(prev.Coord, cur.Move); got != cur.Coord {
				t.Fatalf("user %d task %d req %d: %v + %v = %v, trace says %v",
					tr.User, tr.Task, i, prev.Coord, cur.Move, got, cur.Coord)
			}
			if !pyr.Contains(cur.Coord) {
				t.Fatalf("request outside pyramid: %v", cur.Coord)
			}
		}
	}
}

func TestStudyMoveMixtureMatchesFigure8a(t *testing.T) {
	pyr := worldPyramid(t)
	sim := NewSimulator(pyr, "ndsi_avg")
	traces := sim.RunStudy(3)
	summaries := Summarize(traces)
	if len(summaries) != 3 {
		t.Fatalf("summaries = %d", len(summaries))
	}
	for _, sm := range summaries {
		// Figure 8a: zooming in dominates in every task.
		if !(sm.InFrac > sm.PanFrac && sm.InFrac > sm.OutFrac) {
			t.Errorf("task %d: zoom-in fraction %.2f should dominate (pan %.2f out %.2f)",
				sm.Task, sm.InFrac, sm.PanFrac, sm.OutFrac)
		}
		if sm.PanFrac == 0 || sm.OutFrac == 0 {
			t.Errorf("task %d: degenerate move mixture %+v", sm.Task, sm)
		}
	}
}

func TestStudyPhasesAllPresent(t *testing.T) {
	pyr := worldPyramid(t)
	sim := NewSimulator(pyr, "ndsi_avg")
	traces := sim.RunStudy(5)
	counts := map[trace.Phase]int{}
	for _, tr := range traces {
		for _, r := range tr.Requests {
			counts[r.Phase]++
		}
	}
	for _, ph := range trace.AllPhases() {
		if counts[ph] == 0 {
			t.Errorf("phase %v never occurs in the study", ph)
		}
	}
	if counts[trace.PhaseUnknown] != 0 {
		t.Errorf("%d requests lack ground-truth phases", counts[trace.PhaseUnknown])
	}
}

func TestStudyDeterministic(t *testing.T) {
	pyr := worldPyramid(t)
	a := NewSimulator(pyr, "ndsi_avg").RunStudy(9)
	b := NewSimulator(pyr, "ndsi_avg").RunStudy(9)
	for i := range a {
		if len(a[i].Requests) != len(b[i].Requests) {
			t.Fatalf("trace %d lengths differ", i)
		}
		for j := range a[i].Requests {
			if a[i].Requests[j] != b[i].Requests[j] {
				t.Fatalf("trace %d request %d differs", i, j)
			}
		}
	}
}

func TestPersonaAssignment(t *testing.T) {
	counts := map[string]int{}
	for u := 0; u < NumUsers; u++ {
		counts[PersonaFor(u).Name]++
	}
	if counts["panner"] != 7 || counts["zoomer"] != 6 || counts["balanced"] != 5 {
		t.Errorf("persona split = %v, want 7/6/5", counts)
	}
}

func TestPersonasDiffer(t *testing.T) {
	pyr := worldPyramid(t)
	sim := NewSimulator(pyr, "ndsi_avg")
	task := Tasks(pyr, "ndsi_avg")[0]
	panner := sim.Run(0, task, Personas()[0], 123)
	zoomer := sim.Run(1, task, Personas()[1], 123)
	pPan, _, pOut := panner.MoveCounts()
	zPan, _, zOut := zoomer.MoveCounts()
	pRatio := float64(pPan+1) / float64(pOut+1)
	zRatio := float64(zPan+1) / float64(zOut+1)
	if pRatio <= zRatio {
		t.Errorf("panner pan/out ratio %.2f should exceed zoomer's %.2f", pRatio, zRatio)
	}
}

func TestSummarizeString(t *testing.T) {
	pyr := worldPyramid(t)
	sim := NewSimulator(pyr, "ndsi_avg")
	traces := sim.RunStudy(2)[:6]
	for _, sm := range Summarize(traces) {
		if sm.String() == "" {
			t.Error("empty summary string")
		}
	}
}

func BenchmarkRunStudy(b *testing.B) {
	ndsi, err := modis.BuildWorld(42, 128)
	if err != nil {
		b.Fatal(err)
	}
	pyr, err := tile.Build(&tile.Grid{Rows: 128, Cols: 128, Attrs: modis.Attrs, Data: ndsi}, 16)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewSimulator(pyr, "ndsi_avg").RunStudy(int64(i))
	}
}
