package recommend

import (
	"strings"
	"testing"

	"forecache/internal/tile"
	"forecache/internal/trace"
)

// registryTraces builds a few tiny move traces so the AB spec can train.
func registryTraces() []*trace.Trace {
	var out []*trace.Trace
	for i := 0; i < 3; i++ {
		tr := &trace.Trace{}
		c := tile.Coord{}
		tr.Requests = append(tr.Requests, trace.Request{Coord: c, Move: trace.None})
		for _, q := range []tile.Quadrant{tile.NW, tile.SE} {
			c = c.Child(q)
			mv, _ := trace.MoveBetween(tr.Requests[len(tr.Requests)-1].Coord, c)
			tr.Requests = append(tr.Requests, trace.Request{Coord: c, Move: mv})
		}
		out = append(out, tr)
	}
	return out
}

func TestRegistryValidation(t *testing.T) {
	if _, err := NewRegistry(); err == nil {
		t.Error("empty registry should fail")
	}
	ab := ABSpec(3)
	dup := ABSpec(3)
	if _, err := NewRegistry(ab, dup); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate specs should fail, got %v", err)
	}
	anon := ab
	anon.Name = ""
	if _, err := NewRegistry(anon); err == nil {
		t.Error("empty name should fail")
	}
	noBuild := ab
	noBuild.Build = nil
	if _, err := NewRegistry(noBuild); err == nil {
		t.Error("nil Build should fail")
	}
	noPrior := ab
	noPrior.Prior = nil
	if _, err := NewRegistry(noPrior); err == nil {
		t.Error("nil Prior should fail")
	}
}

// TestRegistryBuildTrainsOnce: Build constructs each model exactly once
// (firing the train hook only for trace-trained specs), and every reader
// of the Set gets those same instances without touching the hook again.
func TestRegistryBuildTrainsOnce(t *testing.T) {
	reg, err := NewRegistry(DefaultSpecs(2, []string{"sift"}, &HotspotConfig{})...)
	if err != nil {
		t.Fatal(err)
	}
	var trained []string
	set, err := reg.Build(Env{
		Tiles:     &fakeSource{},
		Traces:    registryTraces(),
		TrainHook: func(name string) { trained = append(trained, name) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(trained) != 1 || trained[0] != "markov2" {
		t.Fatalf("trained = %v, want exactly [markov2] (SB and hotspot are online)", trained)
	}
	if got := set.Names(); len(got) != 3 || got[0] != "markov2" || got[1] != "hotspot" || got[2] != "sb:sift" {
		t.Fatalf("names = %v", got)
	}

	// Every session reads the same instances: Models is one slice, and the
	// Session adapter wraps those same models.
	models := set.Models()
	if len(models) != 3 || &set.Models()[0] != &models[0] {
		t.Fatalf("Models() = %v, want the one shared slice of 3", models)
	}
	for i, m := range set.Session() {
		if m.Model != models[i] {
			t.Errorf("Session()[%d] wraps %v, want the shared %v", i, m.Model, models[i])
		}
	}
	if len(trained) != 1 {
		t.Fatalf("reading the models trained more: %v", trained)
	}
	for i, m := range models {
		if m.Name() != set.Names()[i] {
			t.Errorf("model %d Name() = %q, want %q", i, m.Name(), set.Names()[i])
		}
	}
	if set.Hotspot() == nil {
		t.Error("Hotspot() should expose the shared table")
	}
}

// TestRegistryTrainRequiresTraces: a trace-trained spec without traces is
// a build error, not a silently untrained model.
func TestRegistryTrainRequiresTraces(t *testing.T) {
	reg, err := NewRegistry(DefaultSpecs(3, []string{"sift"}, nil)...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Build(Env{Tiles: &fakeSource{}}); err == nil {
		t.Error("building a trace-trained spec without traces should fail")
	}
}

// TestDefaultSpecPriors pins the default prior tables: the exact §5.4.3
// hybrid for the two-model registry, and the extended three-column table
// (AB's first-4 cap yields a slot to hotspot, SB keeps the remainder and
// Sensemaking minus the hotspot slot) for the three-model one.
func TestDefaultSpecPriors(t *testing.T) {
	resolve := func(specs []Spec, ph trace.Phase, k int) map[string]int {
		out := map[string]int{}
		remaining := k
		for _, s := range specs {
			n := s.Prior(ph, k)
			if n < 0 || n > remaining {
				n = remaining
			}
			if n > 0 {
				out[s.Name] = n
				remaining -= n
			}
		}
		return out
	}
	two := DefaultSpecs(3, []string{"sift"}, nil)
	three := DefaultSpecs(3, []string{"sift"}, &HotspotConfig{})
	cases := []struct {
		specs []Spec
		ph    trace.Phase
		k     int
		want  map[string]int
	}{
		{two, trace.Foraging, 5, map[string]int{"markov3": 4, "sb:sift": 1}},
		{two, trace.Navigation, 8, map[string]int{"markov3": 4, "sb:sift": 4}},
		{two, trace.Navigation, 3, map[string]int{"markov3": 3}},
		{two, trace.Sensemaking, 5, map[string]int{"sb:sift": 5}},
		{three, trace.Foraging, 5, map[string]int{"markov3": 3, "hotspot": 1, "sb:sift": 1}},
		{three, trace.Navigation, 4, map[string]int{"markov3": 3, "hotspot": 1}},
		{three, trace.Sensemaking, 5, map[string]int{"hotspot": 1, "sb:sift": 4}},
		{three, trace.Sensemaking, 2, map[string]int{"sb:sift": 2}},
		{three, trace.Foraging, 2, map[string]int{"markov3": 2}},
		// The hotspot's k >= 3 slot survives in every phase: AB yields at
		// exactly k=3 instead of consuming the whole budget first.
		{three, trace.Foraging, 3, map[string]int{"markov3": 2, "hotspot": 1}},
		{three, trace.Navigation, 3, map[string]int{"markov3": 2, "hotspot": 1}},
		{three, trace.Sensemaking, 3, map[string]int{"hotspot": 1, "sb:sift": 2}},
	}
	for _, tc := range cases {
		got := resolve(tc.specs, tc.ph, tc.k)
		if len(got) != len(tc.want) {
			t.Errorf("%d specs, %v k=%d: %v, want %v", len(tc.specs), tc.ph, tc.k, got, tc.want)
			continue
		}
		for m, n := range tc.want {
			if got[m] != n {
				t.Errorf("%d specs, %v k=%d: %v, want %v", len(tc.specs), tc.ph, tc.k, got, tc.want)
				break
			}
		}
	}
}
