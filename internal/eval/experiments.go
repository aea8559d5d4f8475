package eval

import (
	"fmt"
	"io"
	"sort"

	"forecache/internal/backend"
	"forecache/internal/phase"
	"forecache/internal/sig"
	"forecache/internal/trace"
)

// Experiment is one reproducible artifact from the paper's evaluation: it
// runs against a harness and writes a plain-text table to w.
type Experiment struct {
	Name  string
	Paper string // which table/figure of the paper this regenerates
	Run   func(w io.Writer, h *Harness) error
}

// KSweep is the fetch sizes the paper sweeps (§5.2.2: k = 1..8).
func KSweep() []int { return []int{1, 2, 3, 4, 5, 6, 7, 8} }

// Experiments returns the full registry, in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{Name: "table1", Paper: "Table 1 + §5.4.1", Run: runTable1},
		{Name: "fig8", Paper: "Figure 8a/8b", Run: runFig8},
		{Name: "fig8-users", Paper: "Figure 8c-8e", Run: runFig8Users},
		{Name: "fig9", Paper: "Figure 9", Run: runFig9},
		{Name: "fig10a", Paper: "Figure 10a", Run: runFig10a},
		{Name: "fig10b", Paper: "Figure 10b", Run: runFig10b},
		{Name: "fig10c", Paper: "Figure 10c", Run: runFig10c},
		{Name: "fig11", Paper: "Figure 11", Run: runFig11},
		{Name: "fig12", Paper: "Figure 12", Run: runFig12},
		{Name: "fig13", Paper: "Figure 13 + §5.5", Run: runFig13},
		{Name: "markov-order", Paper: "§5.4.2 ablation (n = 2..10)", Run: runMarkovOrder},
		{Name: "ablation-policy", Paper: "§4.4 vs §5.4.3 allocation strategies", Run: runPolicyAblation},
		{Name: "ablation-sb", Paper: "SB distance-term ablation (Algorithm 3)", Run: runSBAblation},
		{Name: "ablation-d", Paper: "§5.2.2 prefetch distance d > 1", Run: runDistanceAblation},
	}
}

// Lookup finds an experiment by name.
func Lookup(name string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

func runTable1(w io.Writer, h *Harness) error {
	rows := make([]PhaseResult, 0, phase.NumFeatures+1)
	for i, name := range phase.FeatureNames {
		r, err := h.EvalPhaseLOO([]int{i}, name)
		if err != nil {
			return err
		}
		rows = append(rows, r)
	}
	all, err := h.EvalPhaseLOO(nil, "all six (overall)")
	if err != nil {
		return err
	}
	rows = append(rows, all)
	RenderTable1(w, rows)
	fmt.Fprintf(w, "  paper: x 0.676, y 0.692, zoom 0.696, pan 0.580, zoom-in 0.556, zoom-out 0.448; overall 0.82\n")
	return nil
}

func runFig8(w io.Writer, h *Harness) error {
	RenderFig8(w, h.Traces)
	fmt.Fprintln(w, "  paper shape: zoom-in dominates every task; Foraging share drops for tasks 2-3")
	return nil
}

func runFig8Users(w io.Writer, h *Harness) error {
	RenderFig8Users(w, h.Traces)
	return nil
}

func runFig9(w io.Writer, h *Harness) error {
	// The paper plots participant 2 on task 2. Our user numbering is
	// arbitrary, so show the task-2 trace with the clearest sawtooth (most
	// zoom-direction changes), which is the behaviour Figure 9 documents.
	var best *trace.Trace
	bestChanges := -1
	for _, tr := range h.Traces {
		if tr.Task != 2 {
			continue
		}
		changes, dir := 0, 0
		for i := 1; i < len(tr.Requests); i++ {
			d := tr.Requests[i].Coord.Level - tr.Requests[i-1].Coord.Level
			if d != 0 && ((d > 0) != (dir > 0) || dir == 0) {
				changes++
				dir = d
			}
		}
		if changes > bestChanges {
			best, bestChanges = tr, changes
		}
	}
	if best == nil {
		return fmt.Errorf("no task-2 traces")
	}
	RenderFig9(w, best, h.Pyr.NumLevels())
	fmt.Fprintln(w, "  paper shape: sawtooth between coarse (Foraging) and detailed (Sensemaking) levels")
	return nil
}

// accuracyRow is one labeled engine of an accuracy figure: a single model
// (SingleEngineSetup) or the two-level engine, optionally on oracle phases.
type accuracyRow struct {
	name   string
	setup  EngineSetup
	oracle bool
}

// accuracyFigure evaluates every row leave-one-out and renders them as one
// accuracy-by-phase-and-k table, followed by the paper's reading of it.
func accuracyFigure(w io.Writer, h *Harness, title string, ks []int, rows []accuracyRow, notes ...string) error {
	table := NewTable()
	names := make([]string, len(rows))
	for i, row := range rows {
		names[i] = row.name
		t, err := h.evalLOO(row.name, row.setup, row.oracle, ks)
		if err != nil {
			return err
		}
		table.Merge(t)
	}
	RenderAccuracyByPhase(w, title, table, names, ks)
	for _, note := range notes {
		fmt.Fprintln(w, note)
	}
	return nil
}

func runFig10a(w io.Writer, h *Harness) error {
	return accuracyFigure(w, h, "Figure 10a: AB (markov3) vs existing models, accuracy by phase and k", KSweep(), []accuracyRow{
		{name: "markov3", setup: SingleEngineSetup(ABFactory(3))},
		{name: "momentum", setup: SingleEngineSetup(MomentumFactory())},
		{name: "hotspot", setup: SingleEngineSetup(HotspotFactory(8, 3))},
	}, "  paper shape: markov3 matches the baselines in Foraging/Sensemaking and wins Navigation at every k")
}

func runFig10b(w io.Writer, h *Harness) error {
	var rows []accuracyRow
	for _, s := range sig.AllNames() {
		rows = append(rows, accuracyRow{name: "sb:" + s, setup: SingleEngineSetup(h.SBFactory(s))})
	}
	return accuracyFigure(w, h, "Figure 10b: the four tile signatures, accuracy by phase and k", KSweep(), rows,
		"  paper shape: SIFT gives the best overall accuracy; DenseSIFT trails it")
}

func runFig10c(w io.Writer, h *Harness) error {
	return accuracyFigure(w, h, "Figure 10c: final two-level engine vs its best individual models", KSweep(), []accuracyRow{
		{name: "hybrid", setup: h.HybridEngineSetup(HybridSpec{})},
		{name: "markov3", setup: SingleEngineSetup(ABFactory(3))},
		{name: "sb:sift", setup: SingleEngineSetup(h.SBFactory(sig.NameSIFT))},
	}, "  paper shape: hybrid matches the best model per phase, beating both overall")
}

func runFig11(w io.Writer, h *Harness) error {
	return accuracyFigure(w, h, "Figure 11: final engine vs existing techniques, accuracy by phase and k", KSweep(), []accuracyRow{
		{name: "hybrid", setup: h.HybridEngineSetup(HybridSpec{})},
		{name: "momentum", setup: SingleEngineSetup(MomentumFactory())},
		{name: "hotspot", setup: SingleEngineSetup(HotspotFactory(8, 3))},
	}, "  paper shape: up to 25% better in Navigation, 10-18% better in Sensemaking")
}

// engineRunsAll performs the engine replays shared by Figures 12/13.
func engineRunsAll(h *Harness, ks []int) ([]EngineRun, error) {
	lm := backend.DefaultLatency()
	var all []EngineRun
	for _, spec := range []struct {
		name  string
		setup EngineSetup
	}{
		{"momentum", SingleEngineSetup(MomentumFactory())},
		{"hotspot", SingleEngineSetup(HotspotFactory(8, 3))},
		{"markov3", SingleEngineSetup(ABFactory(3))},
		{"sb:sift", SingleEngineSetup(h.SBFactory(sig.NameSIFT))},
		{"hybrid", h.HybridEngineSetup(HybridSpec{})},
	} {
		runs, err := h.RunEngineLOO(spec.name, spec.setup, ks, lm)
		if err != nil {
			return nil, err
		}
		all = append(all, runs...)
	}
	return all, nil
}

func runFig12(w io.Writer, h *Harness) error {
	runs, err := engineRunsAll(h, []int{1, 3, 5, 8})
	if err != nil {
		return err
	}
	sort.SliceStable(runs, func(i, j int) bool { return runs[i].HitRate < runs[j].HitRate })
	RenderFig12(w, runs)
	return nil
}

func runFig13(w io.Writer, h *Harness) error {
	ks := KSweep()
	lm := backend.DefaultLatency()
	var all []EngineRun
	byModel := map[string][]EngineRun{}
	for _, spec := range []struct {
		name  string
		setup EngineSetup
	}{
		{"hybrid", h.HybridEngineSetup(HybridSpec{})},
		{"momentum", SingleEngineSetup(MomentumFactory())},
		{"hotspot", SingleEngineSetup(HotspotFactory(8, 3))},
	} {
		runs, err := h.RunEngineLOO(spec.name, spec.setup, ks, lm)
		if err != nil {
			return err
		}
		all = append(all, runs...)
		byModel[spec.name] = runs
	}
	RenderFig13(w, all, []string{"hybrid", "momentum", "hotspot"}, ks)
	fmt.Fprintln(w, "  paper shape: hybrid cuts response times by >50% for k >= 5")
	at := func(model string, k int) EngineRun {
		for _, r := range byModel[model] {
			if r.K == k {
				return r
			}
		}
		return EngineRun{}
	}
	RenderHeadline(w, at("hybrid", 5), at("momentum", 5), at("hotspot", 5), lm.Miss)
	return nil
}

func runMarkovOrder(w io.Writer, h *Harness) error {
	ks := []int{1, 3, 5}
	fmt.Fprintln(w, "Markov order sweep (§5.4.2): overall accuracy per order n")
	fmt.Fprintf(w, "  %-4s", "n")
	for _, k := range ks {
		fmt.Fprintf(w, " %8s", fmt.Sprintf("k=%d", k))
	}
	fmt.Fprintln(w)
	for n := 2; n <= 10; n++ {
		name := fmt.Sprintf("markov%d", n)
		t, err := h.EvalModelLOO(name, ABFactory(n), ks)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %-4d", n)
		for _, k := range ks {
			fmt.Fprintf(w, " %8.3f", t.Get(name, k, trace.PhaseUnknown).Accuracy())
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "  paper shape: n=2 worse; negligible gains beyond n=3")
	return nil
}

func runPolicyAblation(w io.Writer, h *Harness) error {
	return accuracyFigure(w, h, "Allocation-strategy ablation: tuned §5.4.3 vs original §4.4 vs oracle phases", []int{2, 5, 8}, []accuracyRow{
		{name: "tuned", setup: h.HybridEngineSetup(HybridSpec{})},
		{name: "original", setup: h.HybridEngineSetup(HybridSpec{OriginalTable: true})},
		{name: "oracle", setup: h.HybridEngineSetup(HybridSpec{}), oracle: true},
	})
}

func runSBAblation(w io.Writer, h *Harness) error {
	return accuracyFigure(w, h, "SB ablation: all signatures vs SIFT-only vs literal Alg. 3 line-13 division", []int{2, 5, 8}, []accuracyRow{
		{name: "sb:all", setup: SingleEngineSetup(h.SBFactory(sig.AllNames()...))},
		{name: "sb:sift", setup: SingleEngineSetup(h.SBFactory(sig.NameSIFT))},
		{name: "sb:sift/div", setup: SingleEngineSetup(h.SBDivFactory(sig.NameSIFT))},
	})
}

func runDistanceAblation(w io.Writer, h *Harness) error {
	ks := []int{4, 8}
	fmt.Fprintln(w, "Prefetch distance ablation (paper leaves d>1 as future work)")
	for _, d := range []int{1, 2} {
		hh := *h
		hh.D = d
		t, err := hh.EvalModelLOO("markov3", ABFactory(3), ks)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  d=%d:", d)
		for _, k := range ks {
			fmt.Fprintf(w, "  k=%d %.3f", k, t.Get("markov3", k, trace.PhaseUnknown).Accuracy())
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "  paper observation (§5.2.2): predicting beyond one move ahead did not improve accuracy")
	return nil
}
