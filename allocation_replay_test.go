package forecache

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

// allocFloor / allocPrior mirror the adaptive policy's exploration floor
// (core's allocFloor, 0.1) and the §5.4.3 hybrid prior at K=5 the replay
// asserts divergence from.
const allocFloor = 0.1

func hybridPriorShare(phase, model string) float64 {
	// The §5.4.3 table at k=5: Sensemaking all to SB; other phases 4/5 AB, 1/5 SB.
	if phase == "Sensemaking" {
		if model == "sb:sift" {
			return 1
		}
		return 0
	}
	if model == "markov3" {
		return 0.8
	}
	return 0.2
}

// TestAdaptiveAllocationReplay is the trace-replay regression suite for
// feedback-driven allocation: the same 12 study traces are replayed
// deterministically (seeded world, scheduler drained per request) under the
// static §5.4.3 table and under AdaptiveAllocation, asserting that
//
//  1. the adaptive hit rate is no worse than the static baseline's (within
//     epsilon),
//  2. the learned shares converged away from the static prior, and
//  3. no model was starved below the exploration floor in any phase,
//
// and that /stats and /metrics export the same converged shares.
func TestAdaptiveAllocationReplay(t *testing.T) {
	ds, traces := testWorld(t)
	const nTraces = 12
	run := func(adaptive, hotspot bool) (hitRate float64, alloc map[string]map[string]float64, metricsBody string) {
		srv, sched, err := ds.newServer(traces, MiddlewareConfig{
			AsyncPrefetch: true, PrefetchWorkers: 4,
			UtilityLearning: true, AdaptiveAllocation: adaptive,
			Hotspot:         hotspot,
			MetricsEndpoint: true, SharedTiles: 64,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		ts := httptest.NewServer(srv)
		defer ts.Close()
		hits, total := replayStudy(t, sched, ts, traces, nTraces)

		resp, err := ts.Client().Get(ts.URL + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var stats struct {
			Allocation map[string]map[string]float64 `json:"allocation"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
			t.Fatal(err)
		}
		mresp, err := ts.Client().Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer mresp.Body.Close()
		var body strings.Builder
		if _, err := io.Copy(&body, mresp.Body); err != nil {
			t.Fatal(err)
		}
		return float64(hits) / float64(total), stats.Allocation, body.String()
	}

	staticRate, staticAlloc, staticMetrics := run(false, false)
	if staticAlloc != nil {
		t.Errorf("static baseline should export no allocation shares: %v", staticAlloc)
	}
	if strings.Contains(staticMetrics, "forecache_allocation_share") {
		t.Error("static baseline /metrics should not export allocation shares")
	}

	adaptiveRate, alloc, metrics := run(true, false)
	t.Logf("hit rate: static %.4f adaptive %.4f; shares %v", staticRate, adaptiveRate, alloc)

	// 1. Acceptance: adaptive allocation is no worse than the tuned static
	// table on the study traces (epsilon absorbs the exploration floor's
	// cost of keeping the losing model alive).
	const epsilon = 0.02
	if adaptiveRate < staticRate-epsilon {
		t.Errorf("adaptive hit rate %.4f < static %.4f - %.2f", adaptiveRate, staticRate, epsilon)
	}

	// 2. The shares converged away from the static prior: every phase saw
	// enough traffic on 12 traces to warm up and move.
	if len(alloc) != 3 {
		t.Fatalf("allocation shares cover %d phases, want all 3: %v", len(alloc), alloc)
	}
	diverged := 0
	for phase, byModel := range alloc {
		if len(byModel) != 2 {
			t.Errorf("phase %s has %d models, want 2: %v", phase, len(byModel), byModel)
		}
		sum := 0.0
		for model, share := range byModel {
			sum += share
			if math.Abs(share-hybridPriorShare(phase, model)) > 0.02 {
				diverged++
			}
		}
		if math.Abs(sum-1) > 1e-6 {
			t.Errorf("phase %s shares sum to %v: %v", phase, sum, byModel)
		}
	}
	if diverged == 0 {
		t.Errorf("no share diverged from the static prior; the loop is not learning: %v", alloc)
	}

	// 3. The exploration floor held everywhere: no model starved to zero in
	// any phase — including the model the static table gives 0 slots.
	for phase, byModel := range alloc {
		for model, share := range byModel {
			if share < allocFloor-1e-9 {
				t.Errorf("phase %s model %s share %.4f below floor %.2f", phase, model, share, allocFloor)
			}
		}
	}

	// /metrics exports the same converged shares, point for point.
	for phase, byModel := range alloc {
		for model, share := range byModel {
			want := fmt.Sprintf(`forecache_allocation_share{model="%s",phase="%s"} %s`,
				model, phase, strconv.FormatFloat(share, 'g', -1, 64))
			if !strings.Contains(metrics, want) {
				t.Errorf("/metrics missing %q", want)
			}
		}
	}

	// ---- The 3-model configuration (-hotspot -adaptive-allocation): the
	// registry's third column makes the learned split genuinely 3-way.
	triRate, triAlloc, triMetrics := run(true, true)
	t.Logf("3-way hit rate: %.4f (2-way static %.4f, adaptive %.4f); shares %v",
		triRate, staticRate, adaptiveRate, triAlloc)

	// Acceptance: the 3-way replay is no worse than either 2-way run
	// (within epsilon: the hotspot's exploration slots have a cost before
	// its table warms).
	if triRate < staticRate-epsilon {
		t.Errorf("3-way hit rate %.4f < 2-way static %.4f - %.2f", triRate, staticRate, epsilon)
	}
	if triRate < adaptiveRate-epsilon {
		t.Errorf("3-way hit rate %.4f < 2-way adaptive %.4f - %.2f", triRate, adaptiveRate, epsilon)
	}

	// Every phase carries exactly the three registered models, shares sum
	// to 1, and the floor holds for all of them.
	if len(triAlloc) != 3 {
		t.Fatalf("3-way shares cover %d phases, want 3: %v", len(triAlloc), triAlloc)
	}
	models := map[string]bool{"markov3": true, "sb:sift": true, "hotspot": true}
	for phase, byModel := range triAlloc {
		if len(byModel) != 3 {
			t.Errorf("phase %s has %d models, want 3: %v", phase, len(byModel), byModel)
		}
		sum := 0.0
		for model, share := range byModel {
			if !models[model] {
				t.Errorf("phase %s has unregistered model %q", phase, model)
			}
			sum += share
			if share < allocFloor-1e-9 {
				t.Errorf("phase %s model %s share %.4f below floor %.2f", phase, model, share, allocFloor)
			}
		}
		if math.Abs(sum-1) > 1e-6 {
			t.Errorf("phase %s shares sum to %v: %v", phase, sum, byModel)
		}
	}

	// Every model earns a non-floor share in at least one phase: the split
	// is genuinely 3-way, not two real models plus a floor-pinned third.
	for model := range models {
		best := 0.0
		for _, byModel := range triAlloc {
			if byModel[model] > best {
				best = byModel[model]
			}
		}
		if best <= allocFloor+0.02 {
			t.Errorf("model %s never rose above the floor (best share %.4f): not a 3-way split", model, best)
		}
	}

	// /stats and /metrics agree point for point on the 3-way shares.
	for phase, byModel := range triAlloc {
		for model, share := range byModel {
			want := fmt.Sprintf(`forecache_allocation_share{model="%s",phase="%s"} %s`,
				model, phase, strconv.FormatFloat(share, 'g', -1, 64))
			if !strings.Contains(triMetrics, want) {
				t.Errorf("3-way /metrics missing %q", want)
			}
		}
	}
}
