package core

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"forecache/internal/trace"
)

// trainedAdaptive returns a policy whose Foraging and Navigation shares
// have moved off the prior, driven by a lopsided fake rater.
func trainedAdaptive(t *testing.T) *AdaptivePolicy {
	t.Helper()
	r := newFakeRater()
	r.set(trace.Foraging, "ab", 0.9, 1000)
	r.set(trace.Foraging, "sb", 0.1, 1000)
	r.set(trace.Navigation, "ab", 0.2, 1000)
	r.set(trace.Navigation, "sb", 0.8, 1000)
	p := mustAdaptive(t, hybridPolicy(t, "ab", "sb"), []string{"ab", "sb"}, r)
	for i := 0; i < 8; i++ {
		p.Allocations(trace.Foraging, 8)
		p.Allocations(trace.Navigation, 8)
	}
	return p
}

func TestAllocationStateRoundTripBytes(t *testing.T) {
	p := trainedAdaptive(t)
	first, err := p.ExportState()
	if err != nil {
		t.Fatal(err)
	}

	q := mustAdaptive(t, hybridPolicy(t, "ab", "sb"), []string{"ab", "sb"}, newFakeRater())
	if err := q.ImportState(first); err != nil {
		t.Fatal(err)
	}
	second, err := q.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Errorf("export -> import -> export not byte-identical:\n%s\nvs\n%s", first, second)
	}
	if !reflect.DeepEqual(q.Shares(), p.Shares()) {
		t.Errorf("restored shares %v, want %v", q.Shares(), p.Shares())
	}
}

// TestAllocationImportRejectsModelSetMismatch: shares learned over a
// different recommender registry must not restore — the cold-start prior
// is the correct state for a changed model set.
func TestAllocationImportRejectsModelSetMismatch(t *testing.T) {
	raw, err := trainedAdaptive(t).ExportState()
	if err != nil {
		t.Fatal(err)
	}
	renamed := mustAdaptive(t, hybridPolicy(t, "ab", "sb"), []string{"ab", "hotspot"}, newFakeRater())
	if err := renamed.ImportState(raw); err == nil {
		t.Error("snapshot with model {ab, sb} imported into policy with {ab, hotspot}")
	}
	grown := mustAdaptive(t, hybridPolicy(t, "ab", "sb"), []string{"ab", "sb", "hotspot"}, newFakeRater())
	if err := grown.ImportState(raw); err == nil {
		t.Error("two-model snapshot imported into three-model policy")
	}
}

func TestAllocationImportRejectsBadState(t *testing.T) {
	valid := func() allocationState {
		return allocationState{Phases: []phaseState{{
			Phase:   "Foraging",
			Shares:  map[string]float64{"ab": 0.7, "sb": 0.3},
			Moved:   true,
			LastObs: 40,
		}}}
	}
	cases := []struct {
		name   string
		mutate func(*allocationState)
	}{
		{"unknown phase", func(s *allocationState) { s.Phases[0].Phase = "Dreaming" }},
		{"duplicate phase", func(s *allocationState) { s.Phases = append(s.Phases, s.Phases[0]) }},
		{"share out of range", func(s *allocationState) { s.Phases[0].Shares = map[string]float64{"ab": 1.3, "sb": -0.3} }},
		{"shares do not sum to one", func(s *allocationState) { s.Phases[0].Shares = map[string]float64{"ab": 0.5, "sb": 0.3} }},
		{"negative clock", func(s *allocationState) { s.Phases[0].LastObs = -1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := valid()
			tc.mutate(&st)
			raw, err := json.Marshal(st)
			if err != nil {
				t.Fatal(err)
			}
			p := trainedAdaptive(t)
			before, _ := p.ExportState()
			if err := p.ImportState(raw); err == nil {
				t.Fatal("bad state imported without error")
			}
			after, _ := p.ExportState()
			if !bytes.Equal(before, after) {
				t.Error("rejected import still mutated the policy")
			}
		})
	}

	p := trainedAdaptive(t)
	if err := p.ImportState([]byte("{not json")); err == nil {
		t.Error("malformed JSON imported without error")
	}
}
