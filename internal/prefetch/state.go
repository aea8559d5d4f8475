package prefetch

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"forecache/internal/trace"
)

// This file is the FeedbackCollector's snapshot surface (internal/persist):
// everything the collector learned online — the position-utility curve
// buckets, the per-(phase, model) allocation rate tables and the per-phase
// staleness clocks they decay against — serializes to a deterministic,
// versioned payload so a warm restart resumes learning exactly where the
// last process stopped instead of re-paying the warmup tax.

// FeedbackStateVersion is the snapshot section format version for
// FeedbackCollector state. Bump it when feedbackState changes shape;
// mismatched sections cold-start rather than misdecode.
const FeedbackStateVersion = 1

// feedbackState is the serialized collector. Field order (and the sorted
// alloc slice) is deterministic so export→import→export round-trips byte
// for byte.
type feedbackState struct {
	// Rate / Obs are the position-utility curve buckets (index = batch
	// position): EWMA consumption rate and lifetime observation count.
	Rate []float64 `json:"rate"`
	Obs  []int     `json:"obs"`
	// PhaseN is the per-phase outcome total: the staleness clock the
	// allocation buckets decay against.
	PhaseN map[string]int `json:"phase_outcomes"`
	// Alloc is the per-(phase, model) allocation rate table, sorted by
	// (phase, model).
	Alloc []allocState `json:"alloc"`
}

// allocState is one serialized allocation bucket.
type allocState struct {
	Phase string  `json:"phase"`
	Model string  `json:"model"`
	Rate  float64 `json:"rate"`
	Obs   int     `json:"obs"`
	LastN int     `json:"last_n"`
}

// ExportState serializes the collector's learned state under one lock
// hold. The payload is self-contained and deterministic: re-exporting an
// unchanged collector yields identical bytes.
func (f *FeedbackCollector) ExportState() ([]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := feedbackState{
		Rate:   append([]float64(nil), f.rate...),
		Obs:    append([]int(nil), f.obs...),
		PhaseN: make(map[string]int, len(f.phaseN)),
	}
	for ph, n := range f.phaseN {
		st.PhaseN[ph.String()] = n
	}
	for key, b := range f.phaseAlloc {
		st.Alloc = append(st.Alloc, allocState{
			Phase: key.ph.String(), Model: key.model,
			Rate: b.rate, Obs: b.obs, LastN: b.lastN,
		})
	}
	sort.Slice(st.Alloc, func(i, j int) bool {
		if st.Alloc[i].Phase != st.Alloc[j].Phase {
			return st.Alloc[i].Phase < st.Alloc[j].Phase
		}
		return st.Alloc[i].Model < st.Alloc[j].Model
	})
	return json.Marshal(st)
}

// ImportState validates a previously exported payload and replaces the
// collector's learned state with it. On any validation failure the
// collector is left untouched (cold start), never half-imported. A
// snapshot taken at a different prefetch budget K restores the
// overlapping curve prefix; deeper positions stay cold.
func (f *FeedbackCollector) ImportState(raw []byte) error {
	var st feedbackState
	if err := json.Unmarshal(raw, &st); err != nil {
		return fmt.Errorf("prefetch: feedback state: %w", err)
	}
	if len(st.Rate) != len(st.Obs) {
		return fmt.Errorf("prefetch: feedback state: %d rates vs %d obs buckets", len(st.Rate), len(st.Obs))
	}
	for i, r := range st.Rate {
		if !validRate(r) {
			return fmt.Errorf("prefetch: feedback state: rate[%d] = %v outside [0, 1]", i, r)
		}
		if st.Obs[i] < 0 {
			return fmt.Errorf("prefetch: feedback state: obs[%d] = %d negative", i, st.Obs[i])
		}
	}
	phaseN := make(map[trace.Phase]int, len(st.PhaseN))
	for name, n := range st.PhaseN {
		ph, err := trace.ParsePhase(name)
		if err != nil {
			return fmt.Errorf("prefetch: feedback state: %w", err)
		}
		if n < 0 {
			return fmt.Errorf("prefetch: feedback state: phase %s outcome total %d negative", name, n)
		}
		phaseN[ph] = n
	}
	alloc := make(map[phaseModel]*allocBucket, len(st.Alloc))
	for _, a := range st.Alloc {
		ph, err := trace.ParsePhase(a.Phase)
		if err != nil {
			return fmt.Errorf("prefetch: feedback state: %w", err)
		}
		key := phaseModel{ph: ph, model: a.Model}
		if _, dup := alloc[key]; dup {
			return fmt.Errorf("prefetch: feedback state: duplicate bucket (%s, %s)", a.Phase, a.Model)
		}
		if !validRate(a.Rate) {
			return fmt.Errorf("prefetch: feedback state: bucket (%s, %s) rate %v outside [0, 1]", a.Phase, a.Model, a.Rate)
		}
		if a.Obs <= 0 {
			return fmt.Errorf("prefetch: feedback state: bucket (%s, %s) has %d observations", a.Phase, a.Model, a.Obs)
		}
		if a.LastN < 0 || a.LastN > phaseN[ph] {
			return fmt.Errorf("prefetch: feedback state: bucket (%s, %s) clock %d outside [0, %d]", a.Phase, a.Model, a.LastN, phaseN[ph])
		}
		alloc[key] = &allocBucket{rate: a.Rate, obs: a.Obs, lastN: a.LastN}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	// The curve restores the overlapping prefix: the collector's bucket
	// count is sized by the CURRENT deployment's K, and observations the
	// old deployment made at deeper positions do not apply to it.
	n := copy(f.rate, st.Rate)
	copy(f.obs, st.Obs)
	for i := n; i < len(f.rate); i++ {
		f.rate[i], f.obs[i] = 0, 0
	}
	f.phaseN = phaseN
	f.phaseAlloc = alloc
	return nil
}

func validRate(r float64) bool {
	return !math.IsNaN(r) && r >= 0 && r <= 1
}
