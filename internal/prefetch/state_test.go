package prefetch

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"

	"forecache/internal/trace"
)

// trainCollector feeds a deterministic mix of phases, models, positions
// and outcomes so every serialized table is non-trivially populated.
func trainCollector(f *FeedbackCollector) {
	phases := []trace.Phase{trace.Foraging, trace.Navigation, trace.Sensemaking}
	models := []string{"markov3", "sb:sift", "hotspot"}
	for i := 0; i < 400; i++ {
		ph := phases[i%len(phases)]
		model := models[i%len(models)]
		pos := i % 6
		hit := i%3 != 0
		f.Observe(ph, model, pos, hit)
	}
}

func TestFeedbackStateRoundTripBytes(t *testing.T) {
	f := NewFeedbackCollector(6)
	trainCollector(f)
	first, err := f.ExportState()
	if err != nil {
		t.Fatal(err)
	}

	g := NewFeedbackCollector(6)
	if err := g.ImportState(first); err != nil {
		t.Fatal(err)
	}
	second, err := g.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Errorf("export -> import -> export not byte-identical:\n%s\nvs\n%s", first, second)
	}

	// The restored collector behaves like the original, not just
	// serializes like it.
	for pos := 0; pos < 6; pos++ {
		if got, want := g.Factor(pos), f.Factor(pos); got != want {
			t.Errorf("Factor(%d) = %v after restore, want %v", pos, got, want)
		}
	}
	models := []string{"markov3", "sb:sift", "hotspot"}
	for _, ph := range []trace.Phase{trace.Foraging, trace.Navigation, trace.Sensemaking} {
		gr, gobs := g.AllocationRates(ph, models)
		wr, wobs := f.AllocationRates(ph, models)
		if !slices.Equal(gr, wr) || !slices.Equal(gobs, wobs) {
			t.Errorf("AllocationRates(%s) = (%v, %v), want (%v, %v)", ph, gr, gobs, wr, wobs)
		}
	}
	if g.Observations() != f.Observations() {
		t.Errorf("Observations = %d, want %d", g.Observations(), f.Observations())
	}
}

// TestFeedbackStateCurvePrefix: a snapshot taken at a different prefetch
// budget restores the overlapping curve prefix and cold-starts the rest.
func TestFeedbackStateCurvePrefix(t *testing.T) {
	wide := NewFeedbackCollector(8)
	trainCollector(wide)
	raw, err := wide.ExportState()
	if err != nil {
		t.Fatal(err)
	}

	narrow := NewFeedbackCollector(4)
	if err := narrow.ImportState(raw); err != nil {
		t.Fatal(err)
	}
	for pos := 0; pos < 4; pos++ {
		if got, want := narrow.Factor(pos), wide.Factor(pos); got != want {
			t.Errorf("narrow Factor(%d) = %v, want wide's %v", pos, got, want)
		}
	}

	// And the other direction: a narrow snapshot leaves the wide
	// collector's deeper buckets at zero observations.
	narrowRaw, err := NewFeedbackCollector(3).ExportState()
	if err != nil {
		t.Fatal(err)
	}
	wide2 := NewFeedbackCollector(8)
	trainCollector(wide2)
	if err := wide2.ImportState(narrowRaw); err != nil {
		t.Fatal(err)
	}
	if wide2.Observations() != 0 {
		t.Errorf("curve observations after importing an empty snapshot = %d, want 0", wide2.Observations())
	}
}

func TestFeedbackImportRejectsBadState(t *testing.T) {
	valid := func() feedbackState {
		return feedbackState{
			Rate:   []float64{0.5, 0.2},
			Obs:    []int{10, 4},
			PhaseN: map[string]int{"Foraging": 20},
			Alloc:  []allocState{{Phase: "Foraging", Model: "m", Rate: 0.4, Obs: 4, LastN: 18}},
		}
	}
	cases := []struct {
		name   string
		mutate func(*feedbackState)
	}{
		{"length mismatch", func(s *feedbackState) { s.Obs = s.Obs[:1] }},
		{"rate above one", func(s *feedbackState) { s.Rate[0] = 1.5 }},
		{"negative obs", func(s *feedbackState) { s.Obs[0] = -1 }},
		{"unknown phase", func(s *feedbackState) { s.PhaseN["Dreaming"] = 1 }},
		{"unknown alloc phase", func(s *feedbackState) { s.Alloc[0].Phase = "Dreaming" }},
		{"bucket rate out of range", func(s *feedbackState) { s.Alloc[0].Rate = -0.1 }},
		{"bucket without observations", func(s *feedbackState) { s.Alloc[0].Obs = 0 }},
		{"bucket clock past phase total", func(s *feedbackState) { s.Alloc[0].LastN = 999 }},
		{"negative phase total", func(s *feedbackState) { s.PhaseN["Foraging"] = -1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := valid()
			tc.mutate(&st)
			raw, err := json.Marshal(st)
			if err != nil {
				t.Fatal(err)
			}
			f := NewFeedbackCollector(4)
			trainCollector(f)
			before, _ := f.ExportState()
			if err := f.ImportState(raw); err == nil {
				t.Fatal("bad state imported without error")
			}
			after, _ := f.ExportState()
			if !bytes.Equal(before, after) {
				t.Error("rejected import still mutated the collector")
			}
		})
	}

	f := NewFeedbackCollector(4)
	if err := f.ImportState([]byte("{not json")); err == nil {
		t.Error("malformed JSON imported without error")
	}
}

// TestFeedbackImportIgnoresRetiredModelTallies: version-1 payloads written
// before the per-model hit/miss tallies were dropped still carry
// model_hits / model_misses. They must import (a warm restart over an old
// snapshot stays warm) and re-export without the two keys.
func TestFeedbackImportIgnoresRetiredModelTallies(t *testing.T) {
	const head = `{"rate":[0.5,0.2],"obs":[10,4],`
	const tail = `"phase_outcomes":{"Foraging":20},"alloc":[{"phase":"Foraging","model":"m","rate":0.4,"obs":4,"last_n":18}]}`
	f := NewFeedbackCollector(2)
	if err := f.ImportState([]byte(head + `"model_hits":{"m":3},"model_misses":{"m":1},` + tail)); err != nil {
		t.Fatalf("payload with retired keys rejected: %v", err)
	}
	if rate, obs := allocationRate(f, trace.Foraging, "m"); obs != 4 || rate <= 0 || rate > 0.4 {
		t.Errorf("rate of (Foraging, m) = (%v, %d), want the imported bucket (rate 0.4 less 2 outcomes of decay, 4 obs)", rate, obs)
	}
	if n := f.Observations(); n != 14 {
		t.Errorf("Observations = %d, want 14", n)
	}
	got, err := f.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	if want := head + tail; string(got) != want {
		t.Errorf("re-export = %s\nwant      %s", got, want)
	}
}
